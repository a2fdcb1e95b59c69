//! Calibrated virtual-time cost model.
//!
//! All constants default to the performance functions measured in §3 of the
//! paper on Blue Waters (Cray XE6, Gemini 3-D torus, AMD Interlagos
//! 2.3 GHz):
//!
//! * `Pput  = 0.16 ns/B · s + 1 µs`
//! * `Pget  = 0.17 ns/B · s + 1.9 µs`
//! * message injection: 416 ns inter-node, 80 ns intra-node
//! * 8-byte AMO latency ≈ 2.4 µs, CAS = 2.4 µs
//! * the DMAPP put/get *protocol change* at 4 KiB (visible as a bump in
//!   Figures 4a/4b/5a/5b)
//!
//! Layered software overheads (foMPI's 173-instruction fast path, Cray UPC /
//! CAF compiler paths, Cray MPI-1 matching, Cray MPI-2.2 one-sided) are
//! charged *by the respective layer crates*, not here; the fabric charges
//! only what the "hardware" costs.

/// Which physical path an operation takes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Transport {
    /// Inter-node RDMA through the (simulated) Gemini NIC.
    Dmapp,
    /// Intra-node direct load/store through the (simulated) XPMEM mapping.
    Xpmem,
}

impl Transport {
    /// Stable lower-case name, as traces and the metrics plane print it.
    pub fn name(self) -> &'static str {
        match self {
            Transport::Dmapp => "dmapp",
            Transport::Xpmem => "xpmem",
        }
    }
}

/// LogGP-style cost parameters, all in nanoseconds (or ns/byte).
#[derive(Debug, Clone)]
pub struct CostModel {
    /// Base (zero-byte) latency of an inter-node put.
    pub dmapp_put_base_ns: f64,
    /// Per-byte cost of an inter-node put (inverse bandwidth).
    pub dmapp_put_byte_ns: f64,
    /// Base latency of an inter-node get.
    pub dmapp_get_base_ns: f64,
    /// Per-byte cost of an inter-node get.
    pub dmapp_get_byte_ns: f64,
    /// Message size (bytes) at which DMAPP switches protocols.
    pub dmapp_proto_change_bytes: usize,
    /// One-off latency penalty added at/above the protocol-change size.
    pub dmapp_proto_penalty_ns: f64,
    /// CPU-side injection overhead of one inter-node operation (416 ns —
    /// §3.1.2 of the paper).
    pub dmapp_inject_ns: f64,
    /// LogGP gap `g`: CPU cost of appending one more operation to an open
    /// inter-node injection burst (issue-side batching — the descriptor is
    /// chained onto the doorbell already rung, so only the per-message gap
    /// is paid, not the full injection overhead).
    pub dmapp_gap_ns: f64,
    /// Latency of one remote 8-byte AMO (fetch-and-add, CAS, ...).
    pub dmapp_amo_ns: f64,
    /// Base latency of an intra-node (XPMEM) transfer.
    pub xpmem_base_ns: f64,
    /// Per-byte cost of an intra-node copy (SSE copy loop).
    pub xpmem_byte_ns: f64,
    /// CPU-side injection overhead of one intra-node operation (80 ns ≈ 190
    /// instructions — §3.1.2).
    pub xpmem_inject_ns: f64,
    /// Intra-node per-message gap for batched issues (store-buffer
    /// write-combining continues an open cacheline run).
    pub xpmem_gap_ns: f64,
    /// Latency of an intra-node CPU atomic on shared memory.
    pub xpmem_amo_ns: f64,
    /// Cost of the local memory fence used by flush/fence (78 instructions
    /// ≈ 34 ns at 2.3 GHz; the paper reports Pflush = 76 ns total).
    pub mfence_ns: f64,
    /// Cost of MPI_Win_sync (Psync = 17 ns).
    pub sync_ns: f64,
    /// Memory registration cost per segment (window creation path).
    pub register_ns: f64,
    /// Compute throughput used when applications charge flops
    /// (ns per flop; Interlagos ≈ 9 GF/s/core sustained → 0.11 ns/flop).
    pub ns_per_flop: f64,
    /// Local memcpy cost per byte (used for eager-protocol receiver copies).
    pub memcpy_byte_ns: f64,
    /// Maximum operations one injection burst may coalesce (bounded
    /// descriptor chains; see [`crate::batch`]).
    pub batch_max_ops: u64,
}

impl Default for CostModel {
    fn default() -> Self {
        Self {
            dmapp_put_base_ns: 1_000.0,
            dmapp_put_byte_ns: 0.16,
            dmapp_get_base_ns: 1_900.0,
            dmapp_get_byte_ns: 0.17,
            dmapp_proto_change_bytes: 4096,
            dmapp_proto_penalty_ns: 400.0,
            dmapp_inject_ns: 416.0,
            dmapp_gap_ns: 50.0,
            dmapp_amo_ns: 2_400.0,
            xpmem_base_ns: 250.0,
            xpmem_byte_ns: 0.08,
            xpmem_inject_ns: 80.0,
            xpmem_gap_ns: 15.0,
            xpmem_amo_ns: 60.0,
            mfence_ns: 34.0,
            sync_ns: 17.0,
            register_ns: 2_000.0,
            ns_per_flop: 0.11,
            memcpy_byte_ns: 0.10,
            batch_max_ops: 64,
        }
    }
}

impl CostModel {
    /// A model with every cost zero — useful for pure-correctness tests.
    pub fn free() -> Self {
        Self {
            dmapp_put_base_ns: 0.0,
            dmapp_put_byte_ns: 0.0,
            dmapp_get_base_ns: 0.0,
            dmapp_get_byte_ns: 0.0,
            dmapp_proto_change_bytes: usize::MAX,
            dmapp_proto_penalty_ns: 0.0,
            dmapp_inject_ns: 0.0,
            dmapp_gap_ns: 0.0,
            dmapp_amo_ns: 0.0,
            xpmem_base_ns: 0.0,
            xpmem_byte_ns: 0.0,
            xpmem_inject_ns: 0.0,
            xpmem_gap_ns: 0.0,
            xpmem_amo_ns: 0.0,
            mfence_ns: 0.0,
            sync_ns: 0.0,
            register_ns: 0.0,
            ns_per_flop: 0.0,
            memcpy_byte_ns: 0.0,
            batch_max_ops: 64,
        }
    }

    /// End-to-end latency of a put of `size` bytes over `t`.
    pub fn put_latency(&self, t: Transport, size: usize) -> f64 {
        match t {
            Transport::Dmapp => {
                let mut l = self.dmapp_put_base_ns + self.dmapp_put_byte_ns * size as f64;
                if size >= self.dmapp_proto_change_bytes {
                    l += self.dmapp_proto_penalty_ns;
                }
                l
            }
            Transport::Xpmem => self.xpmem_base_ns + self.xpmem_byte_ns * size as f64,
        }
    }

    /// End-to-end latency of a get of `size` bytes over `t`.
    pub fn get_latency(&self, t: Transport, size: usize) -> f64 {
        match t {
            Transport::Dmapp => {
                let mut l = self.dmapp_get_base_ns + self.dmapp_get_byte_ns * size as f64;
                if size >= self.dmapp_proto_change_bytes {
                    l += self.dmapp_proto_penalty_ns;
                }
                l
            }
            Transport::Xpmem => self.xpmem_base_ns + self.xpmem_byte_ns * size as f64,
        }
    }

    /// CPU injection overhead of one operation over `t`.
    pub fn inject(&self, t: Transport) -> f64 {
        match t {
            Transport::Dmapp => self.dmapp_inject_ns,
            Transport::Xpmem => self.xpmem_inject_ns,
        }
    }

    /// LogGP gap `g` of appending to an open injection burst over `t`
    /// (charged instead of [`CostModel::inject`] for every coalesced
    /// operation after a burst's first).
    pub fn gap(&self, t: Transport) -> f64 {
        match t {
            Transport::Dmapp => self.dmapp_gap_ns,
            Transport::Xpmem => self.xpmem_gap_ns,
        }
    }

    /// Latency of one 8-byte AMO over `t`.
    pub fn amo_latency(&self, t: Transport) -> f64 {
        match t {
            Transport::Dmapp => self.dmapp_amo_ns,
            Transport::Xpmem => self.xpmem_amo_ns,
        }
    }

    /// One dissemination-barrier round between the furthest participants.
    pub fn barrier_round(&self, t: Transport) -> f64 {
        self.inject(t) + self.put_latency(t, 8)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_put_model_at_8_bytes() {
        let m = CostModel::default();
        // Pput(8 B) = 0.16 * 8 + 1000 ≈ 1 µs.
        let l = m.put_latency(Transport::Dmapp, 8);
        assert!((l - 1001.28).abs() < 0.01, "got {l}");
    }

    #[test]
    fn protocol_change_is_a_bump_not_a_cliff() {
        let m = CostModel::default();
        let below = m.put_latency(Transport::Dmapp, 4095);
        let at = m.put_latency(Transport::Dmapp, 4096);
        assert!(at > below);
        assert!(at - below < 2.0 * m.dmapp_proto_penalty_ns);
    }

    #[test]
    fn get_slower_than_put_for_small() {
        let m = CostModel::default();
        assert!(m.get_latency(Transport::Dmapp, 8) > m.put_latency(Transport::Dmapp, 8));
    }

    #[test]
    fn xpmem_much_cheaper_than_dmapp() {
        let m = CostModel::default();
        assert!(m.put_latency(Transport::Xpmem, 8) * 2.0 < m.put_latency(Transport::Dmapp, 8));
        assert!(m.inject(Transport::Xpmem) < m.inject(Transport::Dmapp));
    }

    #[test]
    fn gap_is_cheaper_than_injection() {
        // Batching only amortises anything if g < o on both transports.
        let m = CostModel::default();
        assert!(m.gap(Transport::Dmapp) < m.inject(Transport::Dmapp));
        assert!(m.gap(Transport::Xpmem) < m.inject(Transport::Xpmem));
    }

    #[test]
    fn free_model_is_all_zero() {
        let m = CostModel::free();
        assert_eq!(m.put_latency(Transport::Dmapp, 1 << 20), 0.0);
        assert_eq!(m.amo_latency(Transport::Xpmem), 0.0);
    }
}
