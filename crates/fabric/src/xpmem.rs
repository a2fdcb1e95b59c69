//! XPMEM-style intra-node direct mappings.
//!
//! XPMEM is a Linux kernel module that maps one process's memory into
//! another's virtual address space; all accesses then happen with plain
//! loads/stores and CPU atomics (§2.1). Our ranks are threads, so an
//! "attach" simply hands out a shared view of the target's [`Segment`].
//! This is the substrate for MPI-3 *shared memory windows* and for the fast
//! intra-node path of every communication call.

use crate::error::FabricError;
use crate::segment::{SegKey, Segment};
use crate::Fabric;
use std::sync::Arc;

/// A direct mapping of a peer's registered segment.
#[derive(Clone)]
pub struct MappedView {
    seg: Arc<Segment>,
    key: SegKey,
}

impl MappedView {
    /// Attach to a peer segment. Fails with
    /// [`FabricError::CrossNodeAttach`] (permanent) if `key`'s owner is
    /// not on the same node as `my_rank` — XPMEM cannot cross node
    /// boundaries — and, under an armed fault plan, transiently with
    /// [`FabricError::SegmentBusy`]: the kernel module's attach can fail
    /// under memory pressure and callers are expected to retry.
    pub fn attach(fabric: &Fabric, my_rank: u32, key: SegKey) -> Result<Self, FabricError> {
        if !fabric.topology().same_node(my_rank, key.rank) {
            return Err(FabricError::CrossNodeAttach { origin: my_rank, target: key.rank });
        }
        if let Some(retry_after_ns) = fabric.faults().draw_busy(my_rank) {
            return Err(FabricError::SegmentBusy { retry_after_ns });
        }
        let seg = fabric.resolve(key)?;
        Ok(Self { seg, key })
    }

    /// The mapped segment's key.
    pub fn key(&self) -> SegKey {
        self.key
    }

    /// Length of the mapping in bytes.
    pub fn len(&self) -> usize {
        self.seg.len()
    }

    /// True if the mapping is empty.
    pub fn is_empty(&self) -> bool {
        self.seg.is_empty()
    }

    /// Direct store (load/store semantics — no NIC involved).
    pub fn store_bytes(&self, off: usize, src: &[u8]) {
        self.seg.write(off, src);
    }

    /// Direct load.
    pub fn load_bytes(&self, off: usize, dst: &mut [u8]) {
        self.seg.read(off, dst);
    }

    /// CPU atomic on the mapped memory (x86 `lock` prefix analogue).
    pub fn atomic(&self, off: usize, op: crate::amo::AmoOp, operand: u64, compare: u64) -> u64 {
        self.seg.amo(off, op, operand, compare)
    }

    /// Load one u64.
    pub fn load_u64(&self, off: usize) -> u64 {
        self.seg.read_u64(off)
    }

    /// Store one u64.
    pub fn store_u64(&self, off: usize, v: u64) {
        self.seg.write_u64(off, v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CostModel;

    #[test]
    fn attach_and_direct_access() {
        let f = Fabric::new(4, 4, CostModel::default());
        let key = f.register(2, Segment::new(256));
        let view = MappedView::attach(&f, 0, key).unwrap();
        view.store_bytes(16, b"hello");
        let mut out = [0u8; 5];
        view.load_bytes(16, &mut out);
        assert_eq!(&out, b"hello");
        assert_eq!(view.len(), 256);
    }

    #[test]
    fn cross_node_attach_is_a_typed_error() {
        let f = Fabric::new(4, 2, CostModel::default());
        let key = f.register(3, Segment::new(8));
        match MappedView::attach(&f, 0, key) {
            Err(FabricError::CrossNodeAttach { origin: 0, target: 3 }) => {}
            other => panic!("expected CrossNodeAttach, got {:?}", other.err()),
        }
    }

    #[test]
    fn attach_surfaces_transient_busy_under_faults() {
        use crate::faults::FaultPlan;
        let plan = FaultPlan { busy_prob: 1.0, ..FaultPlan::heavy(3) };
        let config = crate::Config { faults: plan, ..Default::default() };
        let f = Fabric::with_config(2, 2, CostModel::default(), config);
        let key = f.register(1, Segment::new(8));
        match MappedView::attach(&f, 0, key) {
            Err(e @ FabricError::SegmentBusy { .. }) => assert!(e.is_transient()),
            other => panic!("expected SegmentBusy, got {:?}", other.err()),
        }
    }

    #[test]
    fn atomics_visible_across_views() {
        let f = Fabric::new(2, 2, CostModel::default());
        let key = f.register(1, Segment::new(64));
        let a = MappedView::attach(&f, 0, key).unwrap();
        let b = MappedView::attach(&f, 1, key).unwrap();
        a.atomic(8, crate::amo::AmoOp::Add, 7, 0);
        assert_eq!(b.load_u64(8), 7);
    }
}
