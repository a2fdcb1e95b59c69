//! Remote memory channels (RMC): the queue substrate the paper's notified
//! access was designed for.
//!
//! §4 motivates notified access "to support fast remote-queue-like
//! communications"; this crate builds those queues as a first-class
//! programming model, layered *purely* on the existing one-sided
//! primitives — `put_notify` for data, a data-less `notify` carrying a
//! count for credits, passive-target epochs for lifetime. Four shapes:
//!
//! - [`fanin`](mod@fanin) — MPMC fan-in: N producers append into per-producer slot
//!   regions on one consumer rank. The notification record's `source`
//!   field replaces any shared cursor, so the data path is FAA-free (the
//!   same trick as the notified DSDE port); backpressure is per-producer
//!   credit records.
//! - [`fanout`](mod@fanout) — one publisher multicasting to a subscriber set, with
//!   per-subscriber credit windows and a lagging-subscriber policy
//!   ([`LaggingPolicy::Block`] vs [`LaggingPolicy::Drop`] with a
//!   per-subscriber drop counter).
//! - [`mesh`](mod@mesh) — the all-to-all closure of fan-in: every rank produces
//!   toward every rank and consumes its own fan-in over one symmetric
//!   window (the shape DSDE and halo exchanges need), with lazy credit
//!   returns paid off the receive path, one record per source.
//! - [`rpc`](mod@rpc) — request/response with correlation tags carried in the
//!   notification records, per-endpoint reply channels, bounded
//!   outstanding-request budgets, and timeouts surfaced as *transient*
//!   errors (retryable, consistent with `FabricError` backpressure).
//!
//! Tuning is per structure, at construction: [`fanin()`] and [`fanout()`]
//! take their ring geometry (and the fan-out its [`LaggingPolicy`]) as
//! arguments, [`mesh()`] and [`rpc()`] an [`RmcConfig`]. There is no
//! job-wide knob.
//!
//! Telemetry: producers emit `rmc_send` spans, consumers `rmc_recv`, RPC
//! callers `rpc_call`; each shares its causal flow id with the underlying
//! notified ops, so the Perfetto exporter draws arrows from the send span
//! into the consumer's matching wait.
//!
//! Like `msg::channel`, each structure claims a `(peer, tag)` pair in the
//! per-rank notification space for its lifetime: don't run two RMC
//! structures with the same endpoints concurrently on one rank.

pub mod fanin;
pub mod fanout;
pub mod mesh;
pub mod rpc;

pub use fanin::{fanin, FaninConsumer, FaninEnd, FaninProducer};
pub use fanout::{fanout, FanoutEnd, Publisher, Subscriber};
pub use mesh::{mesh, Mesh};
pub use rpc::{rpc, RpcClient, RpcEnd, RpcRequest, RpcServer};

use fompi::lane::TxLane;
use fompi::{Result, Win};

/// The notified put of one `rmc_send` span, in a causal flow of its own so
/// the trace draws an arrow from the span into the consumer's matching
/// wait. Returns the span's start and the flow id. The lane is fenced
/// first: span and flow cover the put alone, never a lap's flush.
pub(crate) fn put_in_flow(
    win: &Win,
    tx: &mut TxLane,
    msg: &[u8],
    data_tag: u32,
) -> Result<(f64, u64)> {
    tx.fence(win)?;
    let ep = win.endpoint();
    let t0 = ep.clock().now();
    let prev = ep.flow_open();
    let r = tx.put(win, msg, data_tag);
    let flow = ep.current_flow();
    ep.flow_close(prev);
    r.map(|()| (t0, flow))
}

/// Programming errors of a hub-and-spokes constructor, where `what` names
/// the spokes: none listed, the hub among them, or one listed twice.
pub(crate) fn check_spokes(hub: u32, spokes: &[u32], what: &str) {
    assert!(!spokes.is_empty(), "needs at least one {what}");
    assert!(!spokes.contains(&hub), "rank {hub} cannot also be a {what}");
    let distinct = spokes.iter().enumerate().all(|(i, s)| !spokes[..i].contains(s));
    assert!(distinct, "every {what} must be listed once");
}

/// What a publisher does when a subscriber has no free slots left.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LaggingPolicy {
    /// Wait for the lagging subscriber's credit (lossless; the slowest
    /// subscriber paces the whole fan-out).
    Block,
    /// Skip the lagging subscriber and count the drop (lossy; fast
    /// subscribers never wait for slow ones).
    Drop,
}

/// Ring geometry and RPC budgets of one [`mesh()`] or [`rpc()`], passed
/// to its constructor. Every field has a default.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RmcConfig {
    /// Ring slots per producer region / per subscriber ring.
    pub slots: usize,
    /// Payload capacity of one slot, bytes.
    pub slot_bytes: usize,
    /// Maximum outstanding requests per RPC client.
    pub rpc_budget: usize,
    /// Virtual-time reply deadline: a reply whose notification stamp
    /// lands after `issue + rpc_timeout_ns` is dropped and surfaced as a
    /// transient error.
    pub rpc_timeout_ns: u64,
}

impl Default for RmcConfig {
    fn default() -> Self {
        RmcConfig { slots: 8, slot_bytes: 256, rpc_budget: 4, rpc_timeout_ns: 50_000_000 }
    }
}
