//! Point-to-point messaging: eager and rendezvous protocols.
//!
//! §1 of the paper: "fast message passing libraries over RDMA usually
//! require different protocols: an eager protocol with receiver-side
//! buffering of small messages and a rendezvous protocol that synchronizes
//! the sender. Eager requires additional copies, and rendezvous sends
//! additional messages and may delay the sending process." Both are
//! implemented here over the same fabric foMPI uses, so every comparison in
//! Figures 4–8 exercises real protocol differences.

use crate::queue::{tag_match, Completion, Payload, Posted, PullInfo, RecvSlot, Unexpected};
use crate::{Comm, MSG_COSTS};
use fompi_fabric::{Endpoint, Segment};
use std::marker::PhantomData;
use std::sync::Arc;

/// Receive status (MPI_Status).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Status {
    /// Matched source rank.
    pub src: u32,
    /// Matched tag.
    pub tag: u32,
    /// Received bytes.
    pub len: usize,
}

/// Handle of a nonblocking receive; borrows the destination buffer.
pub struct RecvRequest<'buf> {
    cell: Arc<Completion>,
    _buf: PhantomData<&'buf mut [u8]>,
}

impl RecvRequest<'_> {
    /// MPI_Wait: block until the message arrived (pulling the payload
    /// itself if the sender chose rendezvous).
    pub fn wait(self, ep: &Endpoint) -> Status {
        let st = self.cell.wait();
        finish_recv(ep, &st)
    }

    /// MPI_Test.
    pub fn test(&self) -> bool {
        self.cell.poll().is_some()
    }
}

/// Handle of a nonblocking send.
pub struct SendRequest {
    /// FIN cell for rendezvous; eager sends complete locally.
    fin: Option<Arc<Completion>>,
}

impl SendRequest {
    /// MPI_Wait for the send.
    pub fn wait(self, ep: &Endpoint) {
        if let Some(fin) = self.fin {
            let st = fin.wait();
            ep.clock().join(st.stamp);
        }
    }

    /// MPI_Test for the send.
    pub fn test(&self) -> bool {
        self.fin.as_ref().map(|f| f.poll().is_some()).unwrap_or(true)
    }
}

/// Rendezvous completion: the receiver pulls payload via RDMA get and
/// signals the sender's FIN.
fn finish_recv(ep: &Endpoint, st: &crate::queue::CompletionState) -> Status {
    ep.clock().join(st.stamp);
    if let Some(pull) = &st.pull {
        // The slot pointer was captured by the matching sender; the pull
        // copy happens here, receiver-side, as real rendezvous does. The
        // sender wrote the descriptor; data was already delivered into the
        // buffer by `deliver_rndv_to_slot` under the queue lock, so only
        // timing and FIN remain.
        let m = ep.fabric().model();
        let t = ep.transport_to(pull.key.rank);
        ep.clock().advance(m.inject(t));
        ep.clock().advance(m.get_latency(t, pull.len));
        let t_fin = ep.clock().now() + m.put_latency(t, 8);
        pull.fin.signal(t_fin, 0, 0, pull.len, None);
    }
    Status { src: st.src, tag: st.tag, len: st.len }
}

impl Comm {
    fn arrival_time(&self, dst: u32, bytes: usize) -> f64 {
        let t = self.ep.transport_to(dst);
        let m = self.ep.fabric().model();
        self.ep.charge(m.inject(t));
        self.ep.clock().now()
            + m.put_latency(t, bytes + MSG_COSTS.header_bytes)
            + MSG_COSTS.match_ns
    }

    /// MPI_Send (standard mode): eager below the threshold (completes
    /// locally), rendezvous above (blocks until the receiver pulled).
    pub fn send(&self, data: &[u8], dst: u32, tag: u32) -> Result<(), String> {
        self.ep.charge(MSG_COSTS.sw_ns);
        if data.len() <= MSG_COSTS.eager_threshold {
            self.send_eager(data, dst, tag);
            Ok(())
        } else {
            let fin = self.send_rndv(data, dst, tag);
            let st = fin.wait();
            self.ep.clock().join(st.stamp);
            Ok(())
        }
    }

    /// MPI_Ssend: synchronous mode — always uses the rendezvous handshake,
    /// so completion implies the receive was matched (the property NBX
    /// termination detection relies on).
    pub fn ssend(&self, data: &[u8], dst: u32, tag: u32) -> Result<(), String> {
        self.ep.charge(MSG_COSTS.sw_ns);
        let fin = self.send_rndv(data, dst, tag);
        let st = fin.wait();
        self.ep.clock().join(st.stamp);
        Ok(())
    }

    /// MPI_Isend.
    pub fn isend(&self, data: &[u8], dst: u32, tag: u32) -> Result<SendRequest, String> {
        self.ep.charge(MSG_COSTS.sw_ns);
        if data.len() <= MSG_COSTS.eager_threshold {
            self.send_eager(data, dst, tag);
            Ok(SendRequest { fin: None })
        } else {
            Ok(SendRequest { fin: Some(self.send_rndv(data, dst, tag)) })
        }
    }

    /// MPI_Issend (nonblocking synchronous).
    pub fn issend(&self, data: &[u8], dst: u32, tag: u32) -> Result<SendRequest, String> {
        self.ep.charge(MSG_COSTS.sw_ns);
        Ok(SendRequest { fin: Some(self.send_rndv(data, dst, tag)) })
    }

    fn send_eager(&self, data: &[u8], dst: u32, tag: u32) {
        let t_arr = self.arrival_time(dst, data.len());
        let q = self.engine.q(dst);
        let mut inner = q.inner.lock();
        if let Some(pos) = inner.posted.iter().position(|p| tag_match(p.src, p.tag, self.rank, tag))
        {
            let posted = inner.posted.remove(pos).unwrap();
            // Zero-copy fast path: deliver straight into the user buffer.
            // SAFETY: per RecvSlot contract — receiver keeps buffer alive.
            unsafe { posted.slot.write(data) };
            posted.cell.signal(t_arr, self.rank, tag, data.len(), None);
            q.cv.notify_all();
        } else {
            // Unexpected: buffer at the receiver (the eager copy).
            self.engine.buffer_add(data.len());
            inner.unexpected.push_back(Unexpected {
                src: self.rank,
                tag,
                t_arrival: t_arr,
                payload: Payload::Eager(data.to_vec()),
            });
            q.cv.notify_all();
        }
    }

    /// Rendezvous: register the source, send the RTS. Returns the FIN cell.
    fn send_rndv(&self, data: &[u8], dst: u32, tag: u32) -> Arc<Completion> {
        // Register the (copied) source buffer: the descriptor in the RTS.
        let seg = Segment::new(data.len().max(8));
        seg.write(0, data);
        let key = self.ep.fabric().register(self.rank, seg);
        let fin = Completion::new();
        let t_rts = self.arrival_time(dst, 0);
        let q = self.engine.q(dst);
        let mut inner = q.inner.lock();
        if let Some(pos) = inner.posted.iter().position(|p| tag_match(p.src, p.tag, self.rank, tag))
        {
            let posted = inner.posted.remove(pos).unwrap();
            // Deliver the payload into the posted buffer now (we are the
            // NIC); the receiver charges the get cost when it wakes.
            // SAFETY: per RecvSlot contract.
            unsafe { posted.slot.write(data) };
            posted.cell.signal(
                t_rts,
                self.rank,
                tag,
                data.len(),
                Some(PullInfo { key, len: data.len(), fin: fin.clone() }),
            );
            // With the receive already posted, the NIC progresses the pull
            // without receiver involvement: FIN fires at the modeled
            // transfer-complete time. (Deferring FIN to the receiver's
            // wait() would deadlock symmetric rendezvous sendrecv pairs.)
            let m = self.ep.fabric().model();
            let t = self.ep.transport_to(dst);
            let t_fin = t_rts + m.get_latency(t, data.len()) + m.put_latency(t, 8);
            fin.signal(t_fin, 0, 0, data.len(), None);
            q.cv.notify_all();
        } else {
            inner.unexpected.push_back(Unexpected {
                src: self.rank,
                tag,
                t_arrival: t_rts,
                payload: Payload::Rndv { key, len: data.len(), fin: fin.clone() },
            });
            q.cv.notify_all();
        }
        fin
    }

    /// MPI_Recv (blocking).
    pub fn recv(&self, buf: &mut [u8], src: u32, tag: u32) -> Result<Status, String> {
        self.ep.charge(MSG_COSTS.sw_ns + MSG_COSTS.match_ns);
        let cell;
        {
            let q = self.engine.q(self.rank);
            let mut inner = q.inner.lock();
            if let Some(pos) =
                inner.unexpected.iter().position(|u| tag_match(src, tag, u.src, u.tag))
            {
                let u = inner.unexpected.remove(pos).unwrap();
                drop(inner);
                return Ok(self.consume_unexpected(u, buf));
            }
            cell = Completion::new();
            inner.posted.push_back(Posted {
                src,
                tag,
                slot: RecvSlot::new(buf),
                cell: cell.clone(),
            });
        }
        let st = cell.wait();
        Ok(finish_recv(&self.ep, &st))
    }

    /// MPI_Irecv. The returned request borrows `buf` until waited.
    pub fn irecv<'b>(
        &self,
        buf: &'b mut [u8],
        src: u32,
        tag: u32,
    ) -> Result<RecvRequest<'b>, String> {
        self.ep.charge(MSG_COSTS.sw_ns + MSG_COSTS.match_ns);
        let q = self.engine.q(self.rank);
        let mut inner = q.inner.lock();
        let cell = Completion::new();
        if let Some(pos) = inner.unexpected.iter().position(|u| tag_match(src, tag, u.src, u.tag)) {
            let u = inner.unexpected.remove(pos).unwrap();
            drop(inner);
            let st = self.consume_unexpected(u, buf);
            cell.signal(self.ep.clock().now(), st.src, st.tag, st.len, None);
        } else {
            inner.posted.push_back(Posted {
                src,
                tag,
                slot: RecvSlot::new(buf),
                cell: cell.clone(),
            });
        }
        Ok(RecvRequest { cell, _buf: PhantomData })
    }

    /// Handle a matched unexpected message: eager costs the extra copy,
    /// rendezvous pulls via RDMA get and FINs the sender.
    fn consume_unexpected(&self, u: Unexpected, buf: &mut [u8]) -> Status {
        let m = self.ep.fabric().model();
        match u.payload {
            Payload::Eager(data) => {
                self.engine.buffer_sub(data.len());
                buf[..data.len()].copy_from_slice(&data);
                // The eager copy out of the bounce buffer.
                self.ep.clock().join(u.t_arrival);
                self.ep.charge(m.memcpy_byte_ns * data.len() as f64);
                Status { src: u.src, tag: u.tag, len: data.len() }
            }
            Payload::Rndv { key, len, fin } => {
                self.ep.clock().join(u.t_arrival);
                let mut tmp = vec![0u8; len];
                self.ep.get(key, 0, &mut tmp).expect("rendezvous source vanished");
                buf[..len].copy_from_slice(&tmp);
                let t = self.ep.transport_to(key.rank);
                let t_fin = self.ep.clock().now() + m.put_latency(t, 8);
                fin.signal(t_fin, 0, 0, len, None);
                Status { src: u.src, tag: u.tag, len }
            }
        }
    }

    /// MPI_Iprobe: nonblocking check for a matching unexpected message.
    pub fn iprobe(&self, src: u32, tag: u32) -> Option<Status> {
        self.ep.charge(MSG_COSTS.match_ns);
        let q = self.engine.q(self.rank);
        let inner = q.inner.lock();
        inner.unexpected.iter().find(|u| tag_match(src, tag, u.src, u.tag)).map(|u| Status {
            src: u.src,
            tag: u.tag,
            len: u.payload.len(),
        })
    }

    /// MPI_Sendrecv.
    pub fn sendrecv(
        &self,
        senddata: &[u8],
        dst: u32,
        sendtag: u32,
        recvbuf: &mut [u8],
        src: u32,
        recvtag: u32,
    ) -> Result<Status, String> {
        let req = self.irecv(recvbuf, src, recvtag)?;
        self.send(senddata, dst, sendtag)?;
        Ok(req.wait(&self.ep))
    }

    /// Blocking probe.
    pub fn probe(&self, src: u32, tag: u32) -> Status {
        loop {
            if let Some(st) = self.iprobe(src, tag) {
                return st;
            }
            std::thread::yield_now();
        }
    }
}
