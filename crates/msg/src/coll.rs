//! Collectives over point-to-point messaging.
//!
//! These are the baseline algorithms the DSDE comparison (Figure 7b) pits
//! against RMA: personalized alltoall, ring reduce_scatter, and the
//! NBX nonblocking-consensus barrier of Hoefler, Siebert & Lumsdaine
//! (PPoPP'10) — "proved optimal" per §4.2. Plus the dissemination barrier
//! and recursive reduce/broadcast trees used throughout.

use crate::p2p::SendRequest;
use crate::Comm;

/// Tag space reserved for collective internals.
const COLL_TAG: u32 = 0xC011_0000;
/// Tag space reserved for nonblocking barriers (caller supplies an epoch).
const IBARRIER_TAG: u32 = 0xB0_0000;

impl Comm {
    /// Dissemination barrier: ⌈log2 p⌉ rounds of one small message each.
    pub fn barrier(&self) {
        let p = self.size as u32;
        if p <= 1 {
            return;
        }
        let mut r = 0;
        let mut dist = 1;
        while dist < p {
            let dst = (self.rank + dist) % p;
            let src = (self.rank + p - dist) % p;
            let mut token = [0u8; 1];
            self.sendrecv(&[1], dst, COLL_TAG + r, &mut token, src, COLL_TAG + r)
                .expect("barrier exchange failed");
            dist *= 2;
            r += 1;
        }
    }

    /// Personalized all-to-all of `block` bytes per peer. `send.len()` and
    /// `recv.len()` must equal `p * block`. Pairwise-exchange algorithm
    /// (p − 1 rounds).
    pub fn alltoall(&self, send: &[u8], recv: &mut [u8], block: usize) {
        let p = self.size;
        assert_eq!(send.len(), p * block);
        assert_eq!(recv.len(), p * block);
        let me = self.rank as usize;
        recv[me * block..(me + 1) * block].copy_from_slice(&send[me * block..(me + 1) * block]);
        for i in 1..p {
            let dst = (me + i) % p;
            let src = (me + p - i) % p;
            self.sendrecv(
                &send[dst * block..(dst + 1) * block],
                dst as u32,
                COLL_TAG + 64 + i as u32,
                &mut recv[src * block..(src + 1) * block],
                src as u32,
                COLL_TAG + 64 + i as u32,
            )
            .expect("alltoall exchange failed");
        }
    }

    /// Allgather of equal `block`-byte contributions (ring algorithm,
    /// p − 1 steps).
    pub fn allgather(&self, send: &[u8], recv: &mut [u8]) {
        let p = self.size;
        let block = send.len();
        assert_eq!(recv.len(), p * block);
        let me = self.rank as usize;
        recv[me * block..(me + 1) * block].copy_from_slice(send);
        let right = ((me + 1) % p) as u32;
        let left = ((me + p - 1) % p) as u32;
        for s in 0..p - 1 {
            let send_idx = (me + p - s) % p;
            let recv_idx = (me + p - s - 1) % p;
            let chunk = recv[send_idx * block..(send_idx + 1) * block].to_vec();
            let mut tmp = vec![0u8; block];
            self.sendrecv(
                &chunk,
                right,
                COLL_TAG + 128 + s as u32,
                &mut tmp,
                left,
                COLL_TAG + 128 + s as u32,
            )
            .expect("allgather exchange failed");
            recv[recv_idx * block..(recv_idx + 1) * block].copy_from_slice(&tmp);
        }
    }

    /// Allreduce over f64 vectors: binomial-tree reduce to rank 0, then
    /// binomial broadcast (O(log p) rounds, any p).
    pub fn allreduce_f64(&self, vals: &mut [f64], op: impl Fn(f64, f64) -> f64 + Copy) {
        let p = self.size as u32;
        let me = self.rank;
        // Reduce phase.
        let mut dist = 1;
        while dist < p {
            if me.is_multiple_of(2 * dist) {
                let src = me + dist;
                if src < p {
                    let mut buf = vec![0u8; vals.len() * 8];
                    self.recv(&mut buf, src, COLL_TAG + 256).expect("reduce recv");
                    for (i, v) in vals.iter_mut().enumerate() {
                        let o = f64::from_le_bytes(buf[i * 8..i * 8 + 8].try_into().unwrap());
                        *v = op(*v, o);
                    }
                }
            } else if me % (2 * dist) == dist {
                let dst = me - dist;
                let bytes: Vec<u8> = vals.iter().flat_map(|v| v.to_le_bytes()).collect();
                self.send(&bytes, dst, COLL_TAG + 256).expect("reduce send");
                break;
            }
            dist *= 2;
        }
        // Broadcast phase (mirror).
        let rounds = 32 - (p - 1).leading_zeros();
        for r in (0..rounds).rev() {
            let dist = 1 << r;
            if me.is_multiple_of(2 * dist) {
                let dst = me + dist;
                if dst < p {
                    let bytes: Vec<u8> = vals.iter().flat_map(|v| v.to_le_bytes()).collect();
                    self.send(&bytes, dst, COLL_TAG + 257).expect("bcast send");
                }
            } else if me % (2 * dist) == dist {
                let mut buf = vec![0u8; vals.len() * 8];
                self.recv(&mut buf, me - dist, COLL_TAG + 257).expect("bcast recv");
                for (i, v) in vals.iter_mut().enumerate() {
                    *v = f64::from_le_bytes(buf[i * 8..i * 8 + 8].try_into().unwrap());
                }
            }
        }
    }

    /// Reduce_scatter_block over u64 sums: input is `p` blocks of
    /// `block_len` u64 each; rank r receives the element-wise sum of every
    /// rank's block r. Ring algorithm, p − 1 steps.
    pub fn reduce_scatter_u64(&self, send: &[u64], out: &mut [u64]) {
        let p = self.size;
        let block = out.len();
        assert_eq!(send.len(), p * block);
        let me = self.rank as usize;
        if p == 1 {
            out.copy_from_slice(send);
            return;
        }
        let right = ((me + 1) % p) as u32;
        let left = ((me + p - 1) % p) as u32;
        // Block b's partial starts at rank (b+1) mod p and flows rightward,
        // each visitor adding its contribution; it reaches its owner b
        // after p-1 hops. At step k, rank r forwards the partial for block
        // (r-k) mod p and receives the partial for block (r-1-k) mod p.
        let mut acc: Vec<u64> = Vec::new();
        for k in 1..p {
            let b_send = (me + p - k) % p;
            let payload: Vec<u64> = if k == 1 {
                send[b_send * block..(b_send + 1) * block].to_vec()
            } else {
                acc.clone()
            };
            let bytes: Vec<u8> = payload.iter().flat_map(|v| v.to_le_bytes()).collect();
            let mut buf = vec![0u8; block * 8];
            self.sendrecv(
                &bytes,
                right,
                COLL_TAG + 512 + k as u32,
                &mut buf,
                left,
                COLL_TAG + 512 + k as u32,
            )
            .expect("reduce_scatter exchange failed");
            let b_recv = (me + 2 * p - 1 - k) % p;
            acc = (0..block)
                .map(|i| {
                    u64::from_le_bytes(buf[i * 8..i * 8 + 8].try_into().unwrap())
                        .wrapping_add(send[b_recv * block + i])
                })
                .collect();
        }
        out.copy_from_slice(&acc);
    }
}

impl Comm {
    /// Binomial-tree broadcast from `root` (MPI_Bcast).
    pub fn bcast(&self, buf: &mut [u8], root: u32) {
        let p = self.size as u32;
        if p <= 1 {
            return;
        }
        // Re-root the tree: virtual rank 0 is `root`.
        let vrank = (self.rank + p - root) % p;
        let rounds = 32 - (p - 1).leading_zeros();
        for r in (0..rounds).rev() {
            let dist = 1 << r;
            if vrank.is_multiple_of(2 * dist) {
                let vdst = vrank + dist;
                if vdst < p {
                    let dst = (vdst + root) % p;
                    self.send(buf, dst, COLL_TAG + 300 + r).expect("bcast send");
                }
            } else if vrank % (2 * dist) == dist {
                let src = ((vrank - dist) + root) % p;
                self.recv(buf, src, COLL_TAG + 300 + r).expect("bcast recv");
            }
        }
    }
}

/// Nonblocking dissemination barrier (MPI_Ibarrier), the core of the NBX
/// dynamic-sparse-data-exchange protocol. Progress is made by polling
/// [`IBarrier::test`]; distinct concurrent barriers need distinct `epoch`s.
pub struct IBarrier {
    round: u32,
    rounds: u32,
    dist: u32,
    sent: bool,
    done: bool,
    tag_base: u32,
    pending_send: Vec<SendRequest>,
}

impl IBarrier {
    /// Begin a nonblocking barrier for `epoch`.
    pub fn start(comm: &Comm, epoch: u32) -> IBarrier {
        let p = comm.size() as u32;
        let rounds = if p <= 1 { 0 } else { 32 - (p - 1).leading_zeros() };
        IBarrier {
            round: 0,
            rounds,
            dist: 1,
            sent: false,
            done: rounds == 0,
            tag_base: IBARRIER_TAG + epoch * 64,
            pending_send: Vec::new(),
        }
    }

    /// Advance the barrier; returns true once complete.
    pub fn test(&mut self, comm: &Comm) -> bool {
        let p = comm.size() as u32;
        while !self.done {
            if !self.sent {
                let dst = (comm.rank() + self.dist) % p;
                let req = comm.isend(&[1], dst, self.tag_base + self.round).expect("ibarrier send");
                self.pending_send.push(req);
                self.sent = true;
            }
            let src = (comm.rank() + p - self.dist) % p;
            if comm.iprobe(src, self.tag_base + self.round).is_some() {
                let mut token = [0u8; 1];
                comm.recv(&mut token, src, self.tag_base + self.round).expect("ibarrier recv");
                self.round += 1;
                self.dist *= 2;
                self.sent = false;
                if self.round == self.rounds {
                    self.done = true;
                }
            } else {
                return false;
            }
        }
        true
    }

    /// Blocking completion.
    pub fn wait(&mut self, comm: &Comm) {
        while !self.test(comm) {
            std::thread::yield_now();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queue::MsgEngine;
    use fompi_runtime::Universe;

    fn run<T: Send>(p: usize, f: impl Fn(&Comm) -> T + Send + Sync) -> Vec<T> {
        let engine = MsgEngine::new(p);
        Universe::new(p).node_size(2).run(move |ctx| f(&Comm::attach(ctx, &engine)))
    }

    #[test]
    fn barrier_completes() {
        let got = run(5, |c| {
            for _ in 0..3 {
                c.barrier();
            }
            true
        });
        assert!(got.iter().all(|&b| b));
    }

    #[test]
    fn alltoall_permutes_blocks() {
        let got = run(4, |c| {
            let p = c.size();
            let send: Vec<u8> =
                (0..p).flat_map(|d| vec![(c.rank() as u8) * 16 + d as u8; 2]).collect();
            let mut recv = vec![0u8; p * 2];
            c.alltoall(&send, &mut recv, 2);
            recv
        });
        for (r, recv) in got.iter().enumerate() {
            for s in 0..4usize {
                assert_eq!(recv[s * 2], (s as u8) * 16 + r as u8, "rank {r} from {s}");
            }
        }
    }

    #[test]
    fn allgather_collects_in_rank_order() {
        let got = run(5, |c| {
            let mut recv = vec![0u8; 5 * 3];
            c.allgather(&[c.rank() as u8 + 1; 3], &mut recv);
            recv
        });
        for recv in got {
            for s in 0..5usize {
                assert_eq!(&recv[s * 3..s * 3 + 3], &[s as u8 + 1; 3]);
            }
        }
    }

    #[test]
    fn allreduce_f64_sums() {
        let got = run(6, |c| {
            let mut v = [c.rank() as f64, 1.0];
            c.allreduce_f64(&mut v, |a, b| a + b);
            v
        });
        for v in got {
            assert_eq!(v[0], 15.0);
            assert_eq!(v[1], 6.0);
        }
    }

    #[test]
    fn allreduce_f64_non_power_of_two() {
        let got = run(7, |c| {
            let mut v = [1.0f64];
            c.allreduce_f64(&mut v, |a, b| a + b);
            v[0]
        });
        assert!(got.iter().all(|&v| v == 7.0));
    }

    #[test]
    fn reduce_scatter_sums_blocks() {
        let got = run(4, |c| {
            let p = c.size();
            // Rank r contributes block j = [r + 10*j, r + 10*j] (len 2).
            let send: Vec<u64> =
                (0..p).flat_map(|j| vec![c.rank() as u64 + 10 * j as u64; 2]).collect();
            let mut out = vec![0u64; 2];
            c.reduce_scatter_u64(&send, &mut out);
            out
        });
        // Block j sum over r: (0+1+2+3) + 4*(10 j) = 6 + 40 j.
        for (j, out) in got.iter().enumerate() {
            assert_eq!(out[0], 6 + 40 * j as u64, "block {j}");
            assert_eq!(out[1], 6 + 40 * j as u64);
        }
    }

    #[test]
    fn bcast_any_root() {
        for root in [0u32, 2, 4] {
            let got = run(5, move |c| {
                let mut buf = if c.rank() == root { vec![9u8, 8, 7] } else { vec![0u8; 3] };
                c.bcast(&mut buf, root);
                buf
            });
            assert!(got.iter().all(|b| b == &[9, 8, 7]), "root {root}");
        }
    }

    #[test]
    fn ibarrier_requires_all_participants() {
        let got = run(4, |c| {
            if c.rank() == 3 {
                // Latecomer: delay joining.
                c.ep().charge(1.0);
            }
            let mut ib = IBarrier::start(c, 0);
            ib.wait(c);
            true
        });
        assert!(got.iter().all(|&b| b));
    }

    #[test]
    fn barrier_virtual_time_scales_with_log_p() {
        let t4 = run(4, |c| {
            let t0 = c.ep().clock().now();
            c.barrier();
            c.ep().clock().now() - t0
        });
        let t16 = run(16, |c| {
            let t0 = c.ep().clock().now();
            c.barrier();
            c.ep().clock().now() - t0
        });
        let m4 = t4.iter().cloned().fold(0.0, f64::max);
        let m16 = t16.iter().cloned().fold(0.0, f64::max);
        assert!(m16 > m4, "barrier should cost more at higher p");
        assert!(m16 < m4 * 6.0, "barrier should scale ~log p, not linearly");
    }
}
