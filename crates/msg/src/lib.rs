//! # fompi-msg — the message-passing baseline (Cray MPI-1 / MPI-2.2 stand-in)
//!
//! The paper compares foMPI against Cray's MPI-1 point-to-point and its
//! (relatively untuned) MPI-2.2 one-sided implementation. This crate
//! implements that baseline *for real* over the same fabric, because the
//! comparison hinges on mechanisms, not constants:
//!
//! * **eager protocol** (small messages): the payload travels immediately
//!   and, if no receive is posted, is buffered at the receiver — costing an
//!   extra copy and receiver-side memory (the paper's "time / energy /
//!   space" motivation, §1). [`MsgEngine::buffered_high_water`] exposes the
//!   buffering footprint.
//! * **rendezvous protocol** (large messages): an RTS carries a source
//!   descriptor; the receiver pulls the payload with an RDMA get and
//!   signals FIN — synchronising the sender.
//! * **tag matching**: posted-receive and unexpected queues with
//!   ANY_SOURCE/ANY_TAG wildcards, FIFO per pair, charged a per-message
//!   matching overhead.
//! * **collectives**: dissemination barrier, NBX-style nonblocking barrier
//!   ([`coll::IBarrier`]), pairwise alltoall, ring reduce_scatter,
//!   recursive-doubling allreduce, allgather — the building blocks of the
//!   DSDE comparison (Figure 7b).
//! * **MPI-2.2-style one-sided** ([`win22::Win22`]): RMA layered over the
//!   messaging engine with a software-agent charge per operation — the
//!   high-latency curve of Figures 4/5.
//! * **notified-access channels** ([`channel`]): the inverse comparison —
//!   an SPSC producer-consumer channel built purely on one-sided notified
//!   operations (`put_notify` + bulk credit-return `notify`),
//!   showing message-passing semantics recovered *from* scalable RMA.

pub mod channel;
pub mod coll;
pub mod p2p;
pub mod queue;
pub mod win22;

pub use p2p::{RecvRequest, SendRequest, Status};
pub use queue::{MsgEngine, ANY_SOURCE, ANY_TAG};
pub use win22::Win22;

use fompi_fabric::Endpoint;
use fompi_runtime::RankCtx;
use std::rc::Rc;
use std::sync::Arc;

/// Software cost constants for the messaging layer (ns); the values are
/// [`MSG_COSTS`].
#[derive(Debug, Clone)]
pub struct MsgCosts {
    /// Per-call software overhead (argument checking, protocol selection).
    pub sw_ns: f64,
    /// Tag-matching cost per message at the receiver.
    pub match_ns: f64,
    /// Eager/rendezvous protocol switch threshold in bytes.
    pub eager_threshold: usize,
    /// Envelope (header) bytes travelling with each message.
    pub header_bytes: usize,
    /// Software-agent cost for the MPI-2.2 one-sided emulation: the target
    /// side of each RMA op runs through the messaging stack.
    pub agent_ns: f64,
}

/// Cray MPI on Gemini (§3.1: MPI-1 small-message latency ≈ 2–3 µs where
/// the raw put costs ≈ 1 µs): what every [`Comm`] and [`Win22`] call
/// charges, and what `fompi-simnet` prices the MPI baselines from.
pub const MSG_COSTS: MsgCosts = MsgCosts {
    sw_ns: 400.0,
    match_ns: 300.0,
    eager_threshold: 8192,
    header_bytes: 32,
    agent_ns: 7_000.0,
};

/// A communicator handle: one per rank, bound to the shared [`MsgEngine`].
pub struct Comm {
    pub(crate) ep: Rc<Endpoint>,
    pub(crate) engine: Arc<MsgEngine>,
    pub(crate) rank: u32,
    pub(crate) size: usize,
}

impl Comm {
    /// Bind `ctx` to `engine` (the engine must have been created for the
    /// same rank count).
    pub fn attach(ctx: &RankCtx, engine: &Arc<MsgEngine>) -> Comm {
        assert_eq!(engine.size(), ctx.size(), "engine sized for a different universe");
        Comm { ep: ctx.ep_rc(), engine: engine.clone(), rank: ctx.rank(), size: ctx.size() }
    }

    /// This rank.
    pub fn rank(&self) -> u32 {
        self.rank
    }

    /// Communicator size.
    pub fn size(&self) -> usize {
        self.size
    }

    /// The underlying endpoint (virtual clock access).
    pub fn ep(&self) -> &Endpoint {
        &self.ep
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fompi_runtime::Universe;

    fn run_msg<T: Send>(p: usize, node: usize, f: impl Fn(&Comm) -> T + Send + Sync) -> Vec<T> {
        let engine = MsgEngine::new(p);
        Universe::new(p).node_size(node).run(move |ctx| {
            let comm = Comm::attach(ctx, &engine);
            f(&comm)
        })
    }

    #[test]
    fn eager_send_recv() {
        let got = run_msg(2, 1, |c| {
            if c.rank() == 0 {
                c.send(&[1, 2, 3, 4], 1, 7).unwrap();
                Vec::new()
            } else {
                let mut buf = [0u8; 4];
                let st = c.recv(&mut buf, ANY_SOURCE, 7).unwrap();
                assert_eq!(st.src, 0);
                assert_eq!(st.len, 4);
                buf.to_vec()
            }
        });
        assert_eq!(got[1], vec![1, 2, 3, 4]);
    }

    #[test]
    fn rendezvous_large_message() {
        let n = 100_000; // > eager threshold
        let got = run_msg(2, 1, |c| {
            if c.rank() == 0 {
                let data: Vec<u8> = (0..n).map(|i| (i % 251) as u8).collect();
                c.send(&data, 1, 0).unwrap();
                0u64
            } else {
                let mut buf = vec![0u8; n];
                c.recv(&mut buf, 0, 0).unwrap();
                buf.iter().map(|&b| b as u64).sum()
            }
        });
        let expect: u64 = (0..n).map(|i| (i % 251) as u64).sum();
        assert_eq!(got[1], expect);
    }

    #[test]
    fn posted_before_send_fast_path() {
        let got = run_msg(2, 2, |c| {
            if c.rank() == 1 {
                let mut buf = [0u8; 8];
                // Post first (the sender waits on a barrier).
                let req = c.irecv(&mut buf, 0, 5).unwrap();
                c.barrier();
                req.wait(c.ep());
                buf[0]
            } else {
                c.barrier();
                c.send(&[9u8; 8], 1, 5).unwrap();
                0
            }
        });
        assert_eq!(got[1], 9);
    }

    #[test]
    fn wildcard_tag_and_source() {
        let got = run_msg(3, 1, |c| {
            if c.rank() > 0 {
                c.send(&[c.rank() as u8], 0, c.rank()).unwrap();
                0u8
            } else {
                let mut sum = 0;
                for _ in 0..2 {
                    let mut b = [0u8; 1];
                    c.recv(&mut b, ANY_SOURCE, ANY_TAG).unwrap();
                    sum += b[0];
                }
                sum
            }
        });
        assert_eq!(got[0], 3);
    }

    #[test]
    fn message_ordering_per_pair() {
        let got = run_msg(2, 1, |c| {
            if c.rank() == 0 {
                for i in 0..20u8 {
                    c.send(&[i], 1, 3).unwrap();
                }
                vec![]
            } else {
                let mut got = Vec::new();
                for _ in 0..20 {
                    let mut b = [0u8; 1];
                    c.recv(&mut b, 0, 3).unwrap();
                    got.push(b[0]);
                }
                got
            }
        });
        assert_eq!(got[1], (0..20).collect::<Vec<u8>>());
    }

    #[test]
    fn eager_buffering_counts_memory() {
        let engine = MsgEngine::new(2);
        let eng2 = engine.clone();
        Universe::new(2).node_size(1).run(move |ctx| {
            let c = Comm::attach(ctx, &eng2);
            if c.rank() == 0 {
                for _ in 0..4 {
                    c.send(&[0u8; 1024], 1, 0).unwrap();
                }
                c.barrier();
            } else {
                c.barrier(); // let all sends land unexpected
                let mut b = vec![0u8; 1024];
                for _ in 0..4 {
                    c.recv(&mut b, 0, 0).unwrap();
                }
            }
        });
        assert!(engine.buffered_high_water() >= 4 * 1024);
    }

    #[test]
    fn self_send_and_recv() {
        let got = run_msg(2, 1, |c| {
            // Send to self, then receive it (eager buffering path).
            c.send(&[c.rank() as u8 + 50], c.rank(), 9).unwrap();
            let mut b = [0u8; 1];
            let st = c.recv(&mut b, c.rank(), 9).unwrap();
            assert_eq!(st.src, c.rank());
            b[0]
        });
        assert_eq!(got, vec![50, 51]);
    }

    #[test]
    fn zero_byte_messages() {
        let got = run_msg(2, 1, |c| {
            if c.rank() == 0 {
                c.send(&[], 1, 4).unwrap();
                true
            } else {
                let mut b = [0u8; 0];
                let st = c.recv(&mut b, 0, 4).unwrap();
                st.len == 0
            }
        });
        assert!(got.iter().all(|&b| b));
    }

    #[test]
    fn sendrecv_exchange() {
        let got = run_msg(4, 2, |c| {
            let right = (c.rank() + 1) % 4;
            let left = (c.rank() + 3) % 4;
            let mut buf = [0u8; 1];
            c.sendrecv(&[c.rank() as u8 + 1], right, 0, &mut buf, left, 0).unwrap();
            buf[0]
        });
        assert_eq!(got, vec![4, 1, 2, 3]);
    }
}
