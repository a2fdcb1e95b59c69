//! Fabric error type.

use crate::segment::SegKey;

/// Errors surfaced by the fabric layer.
///
/// [`FabricError::SegmentBusy`] and [`FabricError::Backpressure`] are
/// *transient*: the operation was never issued, the caller may retry after
/// the hinted delay (see [`FabricError::is_transient`]). The rest are
/// permanent program or addressing errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FabricError {
    /// The key does not name a registered segment (stale descriptor —
    /// e.g. a detached dynamic-window region).
    UnknownKey(SegKey),
    /// Symmetric registration id already in use on this rank.
    KeyTaken(SegKey),
    /// Access outside the registered region.
    OutOfBounds {
        /// Offending key.
        key: SegKey,
        /// Requested offset.
        offset: usize,
        /// Requested length.
        len: usize,
        /// Segment length.
        seg_len: usize,
    },
    /// An 8-byte AMO at an offset that is not a multiple of 8 (the NIC's
    /// atomics act on aligned words only). Nothing was issued.
    Misaligned {
        /// Offending key.
        key: SegKey,
        /// Requested offset.
        offset: usize,
    },
    /// An element of a list op names a word outside the span `[lo, hi)`
    /// the op was given. Nothing was issued.
    OutsideSpan {
        /// Offending key.
        key: SegKey,
        /// Offset of the element's word.
        offset: usize,
        /// Start of the span.
        lo: usize,
        /// End of the span.
        hi: usize,
    },
    /// Transient registration failure: the NIC's registration resources
    /// are momentarily exhausted. Retry after the hinted delay.
    SegmentBusy {
        /// Suggested backoff before retrying (virtual ns).
        retry_after_ns: u64,
    },
    /// The injection queue refused the operation (nothing was issued).
    /// Retry after the hinted delay.
    Backpressure {
        /// Suggested backoff before retrying (virtual ns).
        retry_after_ns: u64,
    },
    /// XPMEM attach across nodes: the segment owner is not co-located
    /// with the attaching rank, so no shared mapping exists. Permanent.
    CrossNodeAttach {
        /// Attaching rank.
        origin: u32,
        /// Segment owner.
        target: u32,
    },
}

impl FabricError {
    /// May the caller retry this operation after backing off?
    pub fn is_transient(&self) -> bool {
        matches!(self, FabricError::SegmentBusy { .. } | FabricError::Backpressure { .. })
    }
}

impl std::fmt::Display for FabricError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FabricError::UnknownKey(k) => write!(f, "unknown segment key {k:?}"),
            FabricError::KeyTaken(k) => write!(f, "segment key already registered: {k:?}"),
            FabricError::OutOfBounds { key, offset, len, seg_len } => write!(
                f,
                "access [{offset}, {}) out of bounds of segment {key:?} (len {seg_len})",
                offset + len
            ),
            FabricError::Misaligned { key, offset } => {
                write!(f, "AMO at offset {offset} of segment {key:?} is not 8-byte aligned")
            }
            FabricError::OutsideSpan { key, offset, lo, hi } => write!(
                f,
                "list element at offset {offset} is outside the span [{lo}, {hi}) of segment {key:?}"
            ),
            FabricError::SegmentBusy { retry_after_ns } => {
                write!(f, "segment registration transiently busy (retry after {retry_after_ns} ns)")
            }
            FabricError::Backpressure { retry_after_ns } => {
                write!(f, "injection queue backpressure (retry after {retry_after_ns} ns)")
            }
            FabricError::CrossNodeAttach { origin, target } => {
                write!(
                    f,
                    "XPMEM attach requires co-located ranks: {origin} and {target} share no node"
                )
            }
        }
    }
}

impl std::error::Error for FabricError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        // Leaf errors: no underlying cause.
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let k = SegKey { rank: 3, id: 7 };
        let e = FabricError::OutOfBounds { key: k, offset: 8, len: 16, seg_len: 10 };
        let s = e.to_string();
        assert!(s.contains("out of bounds"));
        assert!(s.contains("len 10"));
    }

    #[test]
    fn transience_classification() {
        assert!(FabricError::SegmentBusy { retry_after_ns: 10 }.is_transient());
        assert!(FabricError::Backpressure { retry_after_ns: 10 }.is_transient());
        assert!(!FabricError::UnknownKey(SegKey { rank: 0, id: 1 }).is_transient());
        assert!(
            !FabricError::Misaligned { key: SegKey { rank: 0, id: 1 }, offset: 3 }.is_transient()
        );
        assert!(!FabricError::CrossNodeAttach { origin: 0, target: 5 }.is_transient());
    }

    #[test]
    fn transient_display_carries_hint() {
        let s = FabricError::Backpressure { retry_after_ns: 1234 }.to_string();
        assert!(s.contains("1234"));
    }
}
