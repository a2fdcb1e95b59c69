//! One-sided RPC: request/response over remote memory channels.
//!
//! Requests fan in to the server exactly like [`crate::fanin`] — one
//! private credit ring ([`fompi::lane`]; DESIGN.md, "Remote-memory
//! rings") per client on the server's window copy — and each client's own
//! copy holds its reply ring. The *correlation id* rides in the
//! notification record's tag (low 16 bits under [`REQ_TAG_BASE`] /
//! [`REP_TAG_BASE`]), so a client with several calls in flight matches
//! exactly the reply it waits for, in any order, with no payload header.
//!
//! Window layout (symmetric; `C` clients, `S` slots of `B` bytes):
//!
//! ```text
//! | ring 0: S×B | ring 1: S×B | ... | ring C-1 |
//! ```
//!
//! On the server's copy ring `i` is client `i`'s request ring; on a
//! client's copy ring 0 is its reply ring.
//!
//! The request ring is a pair of lanes: requests are issued and served in
//! correlation order, so the lane cursors *are* the correlation ids, and
//! the server returns request slots in bulk like every lane. The reply
//! ring is not: replies are written and awaited in any order, so its slot
//! is `corr % S`, chosen by the correlation id, not by a cursor.
//!
//! The reply ring needs no credits. A client never issues a correlation
//! id whose reply slot still holds a reply it has not consumed
//! ([`RpcClient::call_async`] refuses `corr − oldest outstanding ≥ S`), so
//! by the time the server receives request `c`, the reply to `c − S` has
//! been read and slot `c % S` is free: the request is its reply's credit.
//! All the server keeps of that ring is the slot-reuse fence, one flush per
//! lap. A call is one notified put each way.
//!
//! Two budgets bound the pipeline: each client may hold at most
//! `rpc_budget` outstanding requests (and never more than a slot-window's
//! worth), surfaced as a *transient* error when exceeded; and a reply
//! whose notification stamp lands after the issue time plus
//! `rpc_timeout_ns` of virtual time is dropped and surfaced as the same
//! transient class — retry is always legal, like fabric backpressure.

use crate::{check_spokes, put_in_flow, RmcConfig};
use fompi::lane::{self, Geometry, RxLane, TxLane};
use fompi::{FompiError, Result, Win};
use fompi_fabric::telemetry::EventKind;
use fompi_fabric::FabricError;
use fompi_runtime::RankCtx;

/// Request-tag base; the low 16 bits carry the correlation id.
pub const REQ_TAG_BASE: u32 = 0x0052_0000;

/// Reply-tag base; the low 16 bits carry the correlation id.
pub const REP_TAG_BASE: u32 = 0x0053_0000;

/// Tag of request-slot credit notifications (server → client).
pub const REQ_CREDIT_TAG: u32 = 0x0054_0001;

/// Give up a blocking RPC wait after this many fruitless matching passes:
/// the peer is gone or deadlocked, which timeout semantics must surface
/// as an error rather than hang.
const SPIN_LIMIT: u64 = 1 << 20;

/// Byte offset of a client's reply ring on its own window copy.
const REPLY_RING: usize = 0;

fn transient(retry_after_ns: u64) -> FompiError {
    FompiError::Fabric(FabricError::Backpressure { retry_after_ns })
}

/// Client half of an RPC endpoint.
pub struct RpcClient {
    win: Win,
    /// This client's request ring on the server's copy; its head is the
    /// next correlation id.
    tx: TxLane,
    geom: Geometry,
    budget: usize,
    timeout_ns: u64,
    /// In-flight calls: `(corr, virtual issue time)`, oldest first.
    outstanding: Vec<(u64, f64)>,
}

/// Server half of an RPC endpoint.
pub struct RpcServer {
    win: Win,
    /// Per-client request ring; a lane's tail is the next correlation id
    /// that client will send (clients issue in order).
    rx: Vec<RxLane>,
    geom: Geometry,
    /// Per-client reply corr at the last flush (the reply-slot reuse
    /// fence — see [`RpcServer::reply`]).
    flushed_at: Vec<u64>,
}

/// One request the server pulled off the wire.
#[derive(Debug, Clone)]
pub struct RpcRequest {
    /// The calling rank.
    pub client: u32,
    /// Correlation id the reply must carry.
    pub corr: u64,
    /// Request payload.
    pub data: Vec<u8>,
}

/// What [`rpc`] hands each participating rank.
pub enum RpcEnd {
    /// This rank is the server.
    Server(RpcServer),
    /// This rank is one of the clients.
    Client(RpcClient),
}

/// Collectively build an RPC endpoint: `clients` call into `server`.
/// Every rank of the universe must call; ranks that are neither get
/// `None`. Ring geometry and budgets come from `cfg`; a zero-capacity ring
/// is a typed error on every rank ([`Geometry::new`]).
pub fn rpc(ctx: &RankCtx, server: u32, clients: &[u32], cfg: &RmcConfig) -> Result<Option<RpcEnd>> {
    let geom = Geometry::new(cfg.slots, cfg.slot_bytes)?;
    check_spokes(server, clients, "rpc client");
    let win = lane::open(ctx, clients.len() * geom.ring_bytes())?;
    let me = ctx.rank();
    let request_ring = |i: usize| i * geom.ring_bytes();
    if me == server {
        let lane = |(i, &c)| RxLane::new(c, request_ring(i), geom);
        Ok(Some(RpcEnd::Server(RpcServer {
            win,
            rx: clients.iter().enumerate().map(lane).collect(),
            geom,
            flushed_at: vec![0; clients.len()],
        })))
    } else if let Some(i) = clients.iter().position(|&c| c == me) {
        Ok(Some(RpcEnd::Client(RpcClient {
            win,
            tx: TxLane::new(server, request_ring(i), geom),
            geom,
            budget: cfg.rpc_budget,
            timeout_ns: cfg.rpc_timeout_ns,
            outstanding: Vec::new(),
        })))
    } else {
        lane::close(win, ctx)?;
        Ok(None)
    }
}

impl RpcClient {
    /// Issue a request without waiting for its reply; returns the
    /// correlation id to pass to [`RpcClient::wait_reply`]. Exceeding the
    /// outstanding budget (or the reply ring's slot window) surfaces as a
    /// transient error — drain a reply, then retry. The slot-window check
    /// is what lets the reply ring run without credits (module docs).
    pub fn call_async(&mut self, req: &[u8]) -> Result<u64> {
        if self.outstanding.len() >= self.budget {
            return Err(transient(self.timeout_ns));
        }
        let corr = self.tx.head();
        if let Some(&(oldest, _)) = self.outstanding.first() {
            if corr - oldest >= self.geom.slots() as u64 {
                // A fresh corr would alias an unconsumed reply slot: the
                // request would tell the server that slot is free.
                return Err(transient(self.timeout_ns));
            }
        }
        if self.tx.credits() == 0 && self.tx.poll_credits(&self.win, REQ_CREDIT_TAG)? == 0 {
            self.tx.wait_credit(&self.win, REQ_CREDIT_TAG)?;
        }
        let tag = REQ_TAG_BASE | (corr as u32 & 0xFFFF);
        let (t0, flow) = put_in_flow(&self.win, &mut self.tx, req, tag)?;
        self.outstanding.push((corr, t0));
        let (ep, server) = (self.win.endpoint(), self.tx.peer());
        ep.trace_flow_consume(EventKind::RmcSend, server, t0, flow, req.len() as u64);
        Ok(corr)
    }

    /// Wait for the reply to `corr`, copy it into `buf`, and return its
    /// length. Replies may be awaited in any order. A reply whose
    /// notification stamp exceeds the issue time plus the configured
    /// timeout is *dropped* (its slot still recycles) and surfaced as a
    /// transient error — deterministically, since the verdict depends
    /// only on virtual stamps. A reply that never arrives surfaces the
    /// same error after a bounded number of matching passes: that bound
    /// (2^20 passes) is a count, not wall time — the first
    /// [`fompi_fabric::Endpoint::IDLE_SPINS`] misses spin, each later one
    /// yields the thread, so how long the passes take depends on the
    /// machine and on what else runs on it.
    pub fn wait_reply(&mut self, corr: u64, buf: &mut [u8]) -> Result<usize> {
        let at = self
            .outstanding
            .iter()
            .position(|&(c, _)| c == corr)
            .ok_or(FompiError::InvalidEpoch("unknown rpc correlation id"))?;
        let issued = self.outstanding[at].1;
        let deadline = issued + self.timeout_ns as f64;
        let server = self.tx.peer();
        let tag = REP_TAG_BASE | (corr as u32 & 0xFFFF);
        let mut spins = 0u64;
        loop {
            if let Some(rec) = self.win.test_notify(server, tag)? {
                let len = rec.bytes as usize;
                let fits = len <= self.geom.slot_bytes() && len <= buf.len();
                if fits {
                    self.win.read_local(self.geom.cell(REPLY_RING, corr), &mut buf[..len]);
                }
                // The reply slot recycles whether or not we keep the data:
                // the next request that maps to it says so to the server.
                self.outstanding.remove(at);
                if !fits {
                    return Err(FompiError::InvalidEpoch("reply payload exceeds the recv buffer"));
                }
                if rec.stamp > deadline {
                    return Err(transient(self.timeout_ns));
                }
                let ep = self.win.endpoint();
                ep.trace_flow_consume(EventKind::RpcCall, server, issued, rec.flow, rec.bytes);
                return Ok(len);
            }
            // Model checker: park until a notification arrives instead of
            // spinning, so a waiting client is disabled, not busy.
            if self.win.endpoint().mc_poll_my_ring("rpc-wait-reply") {
                continue;
            }
            spins += 1;
            if spins > SPIN_LIMIT {
                return Err(transient(self.timeout_ns));
            }
            self.win.endpoint().idle(spins);
        }
    }

    /// One synchronous round trip: issue `req`, wait for the reply.
    pub fn call(&mut self, req: &[u8], buf: &mut [u8]) -> Result<usize> {
        let corr = self.call_async(req)?;
        self.wait_reply(corr, buf)
    }

    /// Requests in flight.
    pub fn outstanding(&self) -> usize {
        self.outstanding.len()
    }

    /// Tear down this end (collective with every other end's `close`).
    pub fn close(self, ctx: &RankCtx) -> Result<()> {
        lane::close(self.win, ctx)
    }
}

impl RpcServer {
    fn client_index(&self, rank: u32) -> Result<usize> {
        self.rx
            .iter()
            .position(|rx| rx.peer() == rank)
            .ok_or(FompiError::InvalidEpoch("rpc record from a rank that is not a client"))
    }

    /// One nonblocking pass: probe each client for its next in-order
    /// request. Returns the first request found.
    pub fn try_recv(&mut self) -> Result<Option<RpcRequest>> {
        let t0 = self.win.endpoint().clock().now();
        for rx in &mut self.rx {
            // Clients issue correlation ids in order, so the next request
            // from this client can only carry its lane's tail — an
            // exact-tag match, no wildcard needed.
            let (client, corr) = (rx.peer(), rx.tail());
            let tag = REQ_TAG_BASE | (corr as u32 & 0xFFFF);
            if let Some(rec) = self.win.test_notify(client, tag)? {
                // Sized from the record but never beyond a slot; `take`
                // rejects a record that claims more.
                let mut data = vec![0u8; (rec.bytes as usize).min(self.geom.slot_bytes())];
                // Copy the payload out; the request slot is owed to the
                // client until half a ring of them goes back at once.
                rx.take_and_credit(&self.win, &rec, &mut data, REQ_CREDIT_TAG)?;
                let ep = self.win.endpoint();
                ep.trace_flow_consume(EventKind::RmcRecv, client, t0, rec.flow, rec.bytes);
                return Ok(Some(RpcRequest { client, corr, data }));
            }
        }
        Ok(None)
    }

    /// Block until a request arrives (bounded; a starved server panics
    /// like a starved `wait_notify` rather than hang silently).
    pub fn recv(&mut self) -> Result<RpcRequest> {
        let mut spins = 0u64;
        loop {
            if let Some(req) = self.try_recv()? {
                return Ok(req);
            }
            // Model checker: a server with an empty ring is blocked, not
            // spinning — park until a client posts something.
            if self.win.endpoint().mc_poll_my_ring("rpc-recv") {
                continue;
            }
            spins += 1;
            assert!(spins <= SPIN_LIMIT, "rpc server starved: no request arrived");
            self.win.endpoint().idle(spins);
        }
    }

    /// Send `rep` as the reply to `req`. Never waits for the client: the
    /// request vouched for its reply slot (module docs).
    pub fn reply(&mut self, req: &RpcRequest, rep: &[u8]) -> Result<()> {
        if rep.len() > self.geom.slot_bytes() {
            return Err(FompiError::InvalidEpoch("reply exceeds the rpc slot size"));
        }
        let i = self.client_index(req.client)?;
        // Slot-reuse fence for the reply ring: the rule of
        // `TxLane::fence`, keyed by the correlation id.
        if req.corr >= self.flushed_at[i] + self.geom.slots() as u64 {
            self.win.flush(req.client)?;
            self.flushed_at[i] = req.corr;
        }
        let ep = self.win.endpoint();
        let t0 = ep.clock().now();
        let prev = ep.flow_open();
        let r = self.win.put_notify(
            rep,
            req.client,
            self.geom.cell(REPLY_RING, req.corr),
            REP_TAG_BASE | (req.corr as u32 & 0xFFFF),
        );
        let flow = ep.current_flow();
        ep.flow_close(prev);
        r?;
        ep.trace_flow_consume(EventKind::RmcSend, req.client, t0, flow, rep.len() as u64);
        Ok(())
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

    fn cfg(slots: usize, budget: usize) -> RmcConfig {
        RmcConfig { slots, slot_bytes: 32, rpc_budget: budget, ..RmcConfig::default() }
    }

    #[test]
    fn request_response_round_trips_from_many_clients() {
        const CALLS: u64 = 8;
        let p = 4usize;
        let got = Universe::new(p).node_size(1).notify_depth(128).run(move |ctx| {
            let clients: Vec<u32> = (1..p as u32).collect();
            let n_clients = clients.len() as u64;
            match rpc(ctx, 0, &clients, &cfg(4, 4)).unwrap().unwrap() {
                RpcEnd::Server(mut srv) => {
                    for _ in 0..CALLS * n_clients {
                        let req = srv.recv().unwrap();
                        let v = u64::from_le_bytes(req.data[..8].try_into().unwrap());
                        srv.reply(&req, &(v * 3).to_le_bytes()).unwrap();
                    }
                    ctx.barrier();
                    srv.close(ctx).unwrap();
                    CALLS * n_clients
                }
                RpcEnd::Client(mut cl) => {
                    let mut ok = 0u64;
                    let mut buf = [0u8; 32];
                    for i in 0..CALLS {
                        let x = (u64::from(ctx.rank()) << 16) | i;
                        let n = cl.call(&x.to_le_bytes(), &mut buf).unwrap();
                        assert_eq!(n, 8);
                        if u64::from_le_bytes(buf[..8].try_into().unwrap()) == x * 3 {
                            ok += 1;
                        }
                    }
                    ctx.barrier();
                    cl.close(ctx).unwrap();
                    ok
                }
            }
        });
        assert_eq!(got, vec![CALLS * 3, CALLS, CALLS, CALLS]);
    }

    #[test]
    fn out_of_order_waits_match_by_correlation_tag() {
        let got = Universe::new(2).node_size(1).run(|ctx| {
            match rpc(ctx, 0, &[1], &cfg(4, 4)).unwrap().unwrap() {
                RpcEnd::Server(mut srv) => {
                    // Echo each request's own payload back.
                    for _ in 0..3 {
                        let req = srv.recv().unwrap();
                        srv.reply(&req, &req.data.clone()).unwrap();
                    }
                    ctx.barrier();
                    srv.close(ctx).unwrap();
                    Vec::new()
                }
                RpcEnd::Client(mut cl) => {
                    let c0 = cl.call_async(b"aaaa").unwrap();
                    let c1 = cl.call_async(b"bbbb").unwrap();
                    let c2 = cl.call_async(b"cccc").unwrap();
                    assert_eq!(cl.outstanding(), 3);
                    let mut buf = [0u8; 32];
                    // Await newest first: correlation tags must match the
                    // right replies regardless of order.
                    let mut out = Vec::new();
                    for c in [c2, c0, c1] {
                        let n = cl.wait_reply(c, &mut buf).unwrap();
                        out.push(buf[..n].to_vec());
                    }
                    assert_eq!(cl.outstanding(), 0);
                    ctx.barrier();
                    cl.close(ctx).unwrap();
                    out
                }
            }
        });
        assert_eq!(got[1], vec![b"cccc".to_vec(), b"aaaa".to_vec(), b"bbbb".to_vec()]);
    }

    #[test]
    fn outstanding_budget_is_a_transient_error() {
        let got = Universe::new(2).node_size(1).run(|ctx| {
            match rpc(ctx, 0, &[1], &cfg(8, 2)).unwrap().unwrap() {
                RpcEnd::Server(mut srv) => {
                    for _ in 0..2 {
                        let req = srv.recv().unwrap();
                        srv.reply(&req, b"ok").unwrap();
                    }
                    ctx.barrier();
                    srv.close(ctx).unwrap();
                    true
                }
                RpcEnd::Client(mut cl) => {
                    let a = cl.call_async(b"x").unwrap();
                    let b = cl.call_async(b"y").unwrap();
                    let err = cl.call_async(b"z").unwrap_err();
                    assert!(err.is_transient(), "budget exhaustion must be retryable: {err}");
                    let mut buf = [0u8; 32];
                    cl.wait_reply(a, &mut buf).unwrap();
                    cl.wait_reply(b, &mut buf).unwrap();
                    ctx.barrier();
                    cl.close(ctx).unwrap();
                    true
                }
            }
        });
        assert!(got.iter().all(|&b| b));
    }

    #[test]
    fn a_call_that_would_alias_an_unconsumed_reply_slot_is_refused() {
        // Two slots, a budget of four: only the reply-slot window can
        // refuse. Call 2 would reply into call 0's slot, so it waits until
        // call 0's reply is consumed — consuming call 1's does not help.
        let got = Universe::new(2).node_size(1).run(|ctx| {
            match rpc(ctx, 0, &[1], &cfg(2, 4)).unwrap().unwrap() {
                RpcEnd::Server(mut srv) => {
                    for _ in 0..2 {
                        let req = srv.recv().unwrap();
                        srv.reply(&req, &req.data.clone()).unwrap();
                    }
                    ctx.barrier();
                    // Both refusals happened before the barrier: neither
                    // sent anything.
                    assert!(srv.try_recv().unwrap().is_none(), "a refused call reached the server");
                    ctx.barrier();
                    let req = srv.recv().unwrap();
                    assert_eq!(req.corr, 2);
                    srv.reply(&req, &req.data.clone()).unwrap();
                    ctx.barrier();
                    srv.close(ctx).unwrap();
                    Vec::new()
                }
                RpcEnd::Client(mut cl) => {
                    let mut buf = [0u8; 32];
                    let mut out = Vec::new();
                    let c0 = cl.call_async(b"c0").unwrap();
                    let c1 = cl.call_async(b"c1").unwrap();
                    let err = cl.call_async(b"c2").unwrap_err();
                    assert!(err.is_transient(), "an aliasing call must be retryable: {err}");
                    assert_eq!(cl.outstanding(), 2, "a refused call is not outstanding");
                    let n = cl.wait_reply(c1, &mut buf).unwrap();
                    out.push(buf[..n].to_vec());
                    let err = cl.call_async(b"c2").unwrap_err();
                    assert!(err.is_transient(), "call 0's slot is still unconsumed: {err}");
                    assert_eq!(cl.outstanding(), 1);
                    ctx.barrier();
                    ctx.barrier();
                    let n = cl.wait_reply(c0, &mut buf).unwrap();
                    out.push(buf[..n].to_vec());
                    let c2 = cl.call_async(b"c2").unwrap();
                    let n = cl.wait_reply(c2, &mut buf).unwrap();
                    out.push(buf[..n].to_vec());
                    assert_eq!(cl.outstanding(), 0);
                    ctx.barrier();
                    cl.close(ctx).unwrap();
                    out
                }
            }
        });
        assert_eq!(got[1], vec![b"c1".to_vec(), b"c0".to_vec(), b"c2".to_vec()]);
    }

    #[test]
    fn late_reply_times_out_deterministically() {
        // The server stalls (virtual time) before replying: the reply's
        // stamp lands past the client's deadline, so the wait must
        // surface a transient timeout — and a fresh call on the same
        // endpoint must still work (the late reply's slot recycled).
        let run = || {
            Universe::new(2).node_size(1).seed(7).run(|ctx| {
                let mut c = cfg(4, 4);
                c.rpc_timeout_ns = 100_000; // 100 µs virtual deadline
                match rpc(ctx, 0, &[1], &c).unwrap().unwrap() {
                    RpcEnd::Server(mut srv) => {
                        let req = srv.recv().unwrap();
                        ctx.ep().charge(1_000_000.0); // 1 ms stall
                        srv.reply(&req, b"late").unwrap();
                        let req = srv.recv().unwrap();
                        srv.reply(&req, b"fast").unwrap();
                        ctx.barrier();
                        srv.close(ctx).unwrap();
                        0
                    }
                    RpcEnd::Client(mut cl) => {
                        let mut buf = [0u8; 32];
                        let err = cl.call(b"one", &mut buf).unwrap_err();
                        assert!(err.is_transient(), "timeout must be retryable: {err}");
                        assert_eq!(cl.outstanding(), 0, "a timed-out call is not outstanding");
                        let n = cl.call(b"two", &mut buf).unwrap();
                        assert_eq!(&buf[..n], b"fast");
                        ctx.barrier();
                        cl.close(ctx).unwrap();
                        ctx.now().to_bits()
                    }
                }
            })
        };
        assert_eq!(run(), run(), "the timeout verdict must be schedule-independent");
    }

    #[test]
    fn third_party_ranks_pass_through() {
        let got =
            Universe::new(4).node_size(2).run(|ctx| match rpc(ctx, 2, &[0], &cfg(2, 2)).unwrap() {
                Some(RpcEnd::Server(mut srv)) => {
                    let req = srv.recv().unwrap();
                    srv.reply(&req, b"pong").unwrap();
                    srv.close(ctx).unwrap();
                    1u8
                }
                Some(RpcEnd::Client(mut cl)) => {
                    let mut buf = [0u8; 32];
                    let n = cl.call(b"ping", &mut buf).unwrap();
                    assert_eq!(&buf[..n], b"pong");
                    cl.close(ctx).unwrap();
                    2u8
                }
                None => 0u8,
            });
        assert_eq!(got, vec![2, 0, 1, 0]);
    }
}
