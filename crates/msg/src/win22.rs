//! An MPI-2.2-era one-sided implementation ("Cray MPI-2.2" baseline).
//!
//! Pre-foMPI vendor RMA layered every one-sided operation over the
//! messaging stack: the origin ships an (op, offset, data) descriptor and a
//! software agent on the target applies it — hence the ~10 µs small-message
//! latencies of Figures 4a/4b and the huge fence costs of Figure 6b. We
//! reproduce that architecture: data still moves for real, but each
//! operation pays the messaging software path plus an agent charge, and
//! synchronisation costs a full round trip per target.

use crate::MSG_COSTS;
use fompi_fabric::{SegKey, Segment};
use fompi_runtime::RankCtx;
use std::rc::Rc;
use std::sync::Arc;

/// A one-sided window in the MPI-2.2 style.
pub struct Win22 {
    ep: Rc<fompi_fabric::Endpoint>,
    coll: Arc<fompi_runtime::CollEngine>,
    id: u64,
    size: usize,
    seg: Arc<Segment>,
}

impl Win22 {
    /// Collectively create a window of `size` bytes per rank.
    pub fn allocate(ctx: &RankCtx, size: usize) -> Win22 {
        let seg = Segment::new(size.max(8));
        let id = loop {
            let proposal = if ctx.rank() == 0 {
                ctx.fabric().propose_id().to_le_bytes().to_vec()
            } else {
                vec![0u8; 8]
            };
            let id = u64::from_le_bytes(ctx.bcast(0, &proposal).try_into().unwrap());
            let ok = ctx.fabric().register_symmetric(ctx.rank(), id, seg.clone()).is_ok();
            if ctx.allreduce_u64(ok as u64, |a, b| a & b) == 1 {
                break id;
            }
            if ok {
                ctx.fabric().deregister(SegKey { rank: ctx.rank(), id });
            }
        };
        ctx.barrier();
        Win22 { ep: ctx.ep_rc(), coll: ctx.coll_arc(), id, size: size.max(8), seg }
    }

    fn key(&self, target: u32) -> SegKey {
        SegKey { rank: target, id: self.id }
    }

    /// Software path of one emulated active-message RMA op: messaging
    /// overhead + matching + target-agent processing.
    fn charge_agent_path(&self) {
        self.ep.charge(MSG_COSTS.sw_ns + MSG_COSTS.match_ns + MSG_COSTS.agent_ns);
    }

    /// One-sided put: header + payload through the messaging path, applied
    /// by the (emulated) target agent.
    pub fn put(&self, origin: &[u8], target: u32, offset: usize) {
        self.charge_agent_path();
        self.ep.put_implicit(self.key(target), offset, origin).expect("win22 put failed");
    }

    /// One-sided get: request message + reply through the agent.
    pub fn get(&self, dst: &mut [u8], target: u32, offset: usize) {
        self.charge_agent_path();
        // The request/response round trip: one extra base latency.
        let t = self.ep.transport_to(target);
        self.ep.charge(self.ep.fabric().model().put_latency(t, 0));
        self.ep.get_implicit(self.key(target), offset, dst).expect("win22 get failed");
    }

    /// MPI-2.2 fence: flush + heavyweight barrier (the implementation the
    /// paper measures is "relatively untuned": extra collective overhead
    /// per fence).
    pub fn fence(&self) {
        self.ep.gsync();
        // Untuned implementations add an alltoall-like counter exchange to
        // know how many ops target each rank.
        self.ep.charge(MSG_COSTS.agent_ns);
        self.coll.barrier(&self.ep);
        self.coll.barrier(&self.ep);
    }

    /// Passive lock: a request/grant round trip with the target agent.
    pub fn lock(&self, target: u32) {
        self.charge_agent_path();
        let t = self.ep.transport_to(target);
        let m = self.ep.fabric().model();
        self.ep.charge(m.put_latency(t, 0) + m.get_latency(t, 0));
    }

    /// Passive unlock: completes queued ops, releases via the agent.
    pub fn unlock(&self, target: u32) {
        self.ep.flush_target(target);
        self.charge_agent_path();
        let t = self.ep.transport_to(target);
        self.ep.charge(self.ep.fabric().model().put_latency(t, 0));
    }

    /// Local window size.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Read local window memory.
    pub fn read_local(&self, off: usize, dst: &mut [u8]) {
        self.seg.read(off, dst);
    }

    /// Write local window memory.
    pub fn write_local(&self, off: usize, src: &[u8]) {
        self.seg.write(off, src);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fompi_runtime::Universe;

    #[test]
    fn put_roundtrip_with_fence() {
        let got = Universe::new(4).node_size(2).run(|ctx| {
            let win = Win22::allocate(ctx, 64);
            win.fence();
            let next = (ctx.rank() + 1) % 4;
            win.put(&[ctx.rank() as u8 + 1; 8], next, 0);
            win.fence();
            let mut b = [0u8; 8];
            win.read_local(0, &mut b);
            b[0]
        });
        assert_eq!(got, vec![4, 1, 2, 3]);
    }

    #[test]
    fn agent_path_much_slower_than_fompi_put() {
        // The point of this baseline: one Win22 put costs ≳ 7 µs of software
        // path before any network time.
        let times = Universe::new(2).node_size(1).run(|ctx| {
            let win = Win22::allocate(ctx, 64);
            win.fence();
            let t0 = ctx.now();
            if ctx.rank() == 0 {
                win.put(&[1u8; 8], 1, 0);
            }
            let dt = ctx.now() - t0;
            win.fence();
            dt
        });
        assert!(times[0] > 7_000.0, "agent path too cheap: {} ns", times[0]);
    }

    #[test]
    fn lock_unlock_get() {
        let got = Universe::new(2).node_size(1).run(|ctx| {
            let win = Win22::allocate(ctx, 16);
            win.write_local(0, &[ctx.rank() as u8 + 40; 16]);
            ctx.barrier();
            let other = (ctx.rank() + 1) % 2;
            win.lock(other);
            let mut b = [0u8; 8];
            win.get(&mut b, other, 0);
            win.unlock(other);
            b[0]
        });
        assert_eq!(got, vec![41, 40]);
    }
}
