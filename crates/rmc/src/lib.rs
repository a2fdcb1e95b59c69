//! Remote memory channels (RMC): the queue substrate the paper's notified
//! access was designed for.
//!
//! §4 motivates notified access "to support fast remote-queue-like
//! communications"; this crate builds those queues as a first-class
//! programming model, layered *purely* on the existing one-sided
//! primitives — `put_notify` for data, a data-less `notify` carrying a
//! count for credits, passive-target epochs for lifetime. Four shapes:
//!
//! - [`fanin`] — MPMC fan-in: N producers append into per-producer slot
//!   regions on one consumer rank. The notification record's `source`
//!   field replaces any shared cursor, so the data path is FAA-free (the
//!   same trick as the notified DSDE port); backpressure is per-producer
//!   credit records.
//! - [`fanout`] — one publisher multicasting to a subscriber set, with
//!   per-subscriber credit windows and a lagging-subscriber policy
//!   ([`LaggingPolicy::Block`] vs [`LaggingPolicy::Drop`] with a
//!   per-subscriber drop counter).
//! - [`mesh`] — the all-to-all closure of fan-in: every rank produces
//!   toward every rank and consumes its own fan-in over one symmetric
//!   window (the shape DSDE and halo exchanges need), with lazy credit
//!   returns paid off the receive path, one record per source.
//! - [`rpc`] — request/response with correlation tags carried in the
//!   notification records, per-endpoint reply channels, bounded
//!   outstanding-request budgets, and timeouts surfaced as *transient*
//!   errors (retryable, consistent with `FabricError` backpressure).
//!
//! Tuning rides the `FOMPI_RMC` environment knob (or
//! `Universe::rmc(spec)`): the fabric carries the raw spec string, this
//! crate owns the grammar — see [`RmcConfig::parse`].
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
use fompi_runtime::RankCtx;

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

/// Parsed `FOMPI_RMC` tuning knobs. Every field has a default; the spec
/// grammar is comma-separated `key=value` pairs, e.g.
/// `slots=8,slot_bytes=256,lagging=drop,rpc_budget=4,rpc_timeout_ns=2000000`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RmcConfig {
    /// Ring slots per producer region / per subscriber ring.
    pub slots: usize,
    /// Payload capacity of one slot, bytes.
    pub slot_bytes: usize,
    /// Fan-out behaviour when a subscriber lags.
    pub lagging: LaggingPolicy,
    /// Maximum outstanding requests per RPC client.
    pub rpc_budget: usize,
    /// Virtual-time reply deadline: a reply whose notification stamp
    /// lands after `issue + rpc_timeout_ns` is dropped and surfaced as a
    /// transient error.
    pub rpc_timeout_ns: u64,
}

impl Default for RmcConfig {
    fn default() -> Self {
        RmcConfig {
            slots: 8,
            slot_bytes: 256,
            lagging: LaggingPolicy::Block,
            rpc_budget: 4,
            rpc_timeout_ns: 50_000_000,
        }
    }
}

impl RmcConfig {
    /// Parse a spec string over the defaults. Unknown keys and malformed
    /// values are errors — a typo in `FOMPI_RMC` must fail loudly, not
    /// silently run with defaults.
    pub fn parse(spec: &str) -> std::result::Result<RmcConfig, String> {
        let mut cfg = RmcConfig::default();
        for pair in spec.split(',').map(str::trim).filter(|s| !s.is_empty()) {
            let (key, val) = pair
                .split_once('=')
                .ok_or_else(|| format!("FOMPI_RMC entry {pair:?} is not key=value"))?;
            let uint = |what: &str| {
                val.parse::<u64>().map_err(|_| format!("FOMPI_RMC {what}={val:?} is not a number"))
            };
            match key.trim() {
                "slots" => cfg.slots = uint("slots")? as usize,
                "slot_bytes" => cfg.slot_bytes = uint("slot_bytes")? as usize,
                "lagging" => {
                    cfg.lagging = match val.trim() {
                        "block" => LaggingPolicy::Block,
                        "drop" => LaggingPolicy::Drop,
                        other => {
                            return Err(format!("FOMPI_RMC lagging={other:?} (want block or drop)"))
                        }
                    }
                }
                "rpc_budget" => cfg.rpc_budget = uint("rpc_budget")? as usize,
                "rpc_timeout_ns" => cfg.rpc_timeout_ns = uint("rpc_timeout_ns")?,
                other => return Err(format!("unknown FOMPI_RMC key {other:?}")),
            }
        }
        if cfg.slots == 0 || cfg.slot_bytes == 0 {
            return Err("FOMPI_RMC slots and slot_bytes must be nonzero".into());
        }
        if cfg.rpc_budget == 0 {
            return Err("FOMPI_RMC rpc_budget must be nonzero".into());
        }
        Ok(cfg)
    }

    /// The config in force for this job: the fabric-carried `FOMPI_RMC` /
    /// `Universe::rmc` spec parsed over the defaults. Panics on a
    /// malformed spec (configuration errors are programmer errors).
    pub fn from_ctx(ctx: &RankCtx) -> RmcConfig {
        match ctx.fabric().rmc() {
            Some(spec) => match RmcConfig::parse(spec) {
                Ok(cfg) => cfg,
                Err(e) => panic!("invalid FOMPI_RMC spec: {e}"),
            },
            None => RmcConfig::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_spec_round_trips() {
        assert_eq!(RmcConfig::parse("").unwrap(), RmcConfig::default());
        let cfg =
            RmcConfig::parse("slots=16,slot_bytes=64,lagging=drop,rpc_budget=2,rpc_timeout_ns=99")
                .unwrap();
        assert_eq!(cfg.slots, 16);
        assert_eq!(cfg.slot_bytes, 64);
        assert_eq!(cfg.lagging, LaggingPolicy::Drop);
        assert_eq!(cfg.rpc_budget, 2);
        assert_eq!(cfg.rpc_timeout_ns, 99);
    }

    #[test]
    fn malformed_specs_fail_loudly() {
        for bad in
            ["slots", "slots=x", "lagging=maybe", "rnaks=2", "slots=0", "rpc_budget=0", "a=1,b"]
        {
            assert!(RmcConfig::parse(bad).is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn universe_spec_reaches_the_config() {
        use fompi_runtime::Universe;
        let got = Universe::new(2).node_size(1).rmc("slots=3,lagging=drop").run(|ctx| {
            let cfg = RmcConfig::from_ctx(ctx);
            (cfg.slots, cfg.lagging == LaggingPolicy::Drop)
        });
        assert!(got.iter().all(|&(s, d)| s == 3 && d));
    }
}
