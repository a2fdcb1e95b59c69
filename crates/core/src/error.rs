//! foMPI error type.

use fompi_fabric::FabricError;

/// Errors reported by the RMA layer. MPI would abort by default; we surface
/// typed errors so tests can assert on misuse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FompiError {
    /// Communication call outside any access epoch, or targeting a rank not
    /// covered by the current epoch.
    NoAccessEpoch {
        /// The offending target.
        target: u32,
    },
    /// Synchronisation call invalid in the current epoch state
    /// (e.g. `lock` inside a fence epoch, `complete` without `start`).
    InvalidEpoch(&'static str),
    /// Target displacement range exceeds the target's window.
    OutOfBounds {
        /// Target rank.
        target: u32,
        /// Byte offset of the access.
        offset: usize,
        /// Byte length of the access.
        len: usize,
        /// Target window size in bytes.
        win_size: usize,
    },
    /// The PSCW matching pool on the target is exhausted (more concurrent
    /// posters than the configured `pscw_pool`).
    PoolExhausted {
        /// The target whose pool overflowed.
        target: u32,
    },
    /// Origin and target datatype signatures disagree (total bytes differ).
    TypeMismatch {
        /// Total origin bytes.
        origin_bytes: usize,
        /// Total target bytes.
        target_bytes: usize,
    },
    /// Operation/type combination not valid for accumulate
    /// (e.g. non-arithmetic type).
    BadAccumulate(&'static str),
    /// Dynamic-window address range not attached at the target.
    NotAttached {
        /// Target rank.
        target: u32,
        /// Requested address.
        addr: u64,
    },
    /// Too many attached regions (`meta::MAX_DYN_REGIONS`).
    RegionTableFull,
    /// Shared-memory window requested across node boundaries.
    NotShareable,
    /// A ring end was handed a credit for a slot it never filled: `peer`
    /// returned more credits than the ring has slots.
    StrayCredit {
        /// The rank the stray credit came from.
        peer: u32,
    },
    /// A protocol metadata word was not in its rest state when every rank
    /// had closed its epochs ([`crate::Win::metadata_residue`]).
    NotAtRest {
        /// Name of the word.
        word: &'static str,
        /// What it held.
        got: u64,
        /// Its rest value.
        want: u64,
    },
    /// Underlying fabric error.
    Fabric(FabricError),
}

impl From<FabricError> for FompiError {
    fn from(e: FabricError) -> Self {
        FompiError::Fabric(e)
    }
}

impl std::fmt::Display for FompiError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FompiError::NoAccessEpoch { target } => {
                write!(f, "no access epoch covering target {target}")
            }
            FompiError::InvalidEpoch(what) => write!(f, "invalid epoch transition: {what}"),
            FompiError::OutOfBounds { target, offset, len, win_size } => write!(
                f,
                "access [{offset}, {}) exceeds window of size {win_size} at target {target}",
                offset + len
            ),
            FompiError::PoolExhausted { target } => {
                write!(f, "PSCW matching pool exhausted at target {target}")
            }
            FompiError::TypeMismatch { origin_bytes, target_bytes } => write!(
                f,
                "datatype signature mismatch: origin {origin_bytes} B vs target {target_bytes} B"
            ),
            FompiError::BadAccumulate(why) => write!(f, "invalid accumulate: {why}"),
            FompiError::NotAttached { target, addr } => {
                write!(f, "address {addr:#x} not attached at target {target}")
            }
            FompiError::RegionTableFull => write!(f, "dynamic window region table full"),
            FompiError::NotShareable => {
                write!(f, "shared window requires all ranks on one node")
            }
            FompiError::StrayCredit { peer } => write!(
                f,
                "ring credit underflow: rank {peer} returned more slots than were ever filled"
            ),
            FompiError::NotAtRest { word, got, want } => {
                write!(f, "metadata word {word} not quiescent: {got:#x} != {want:#x}")
            }
            FompiError::Fabric(e) => write!(f, "fabric: {e}"),
        }
    }
}

impl FompiError {
    /// May the caller retry after backing off? True only for wrapped
    /// transient fabric conditions (`SegmentBusy`, `Backpressure`).
    pub fn is_transient(&self) -> bool {
        matches!(self, FompiError::Fabric(e) if e.is_transient())
    }
}

impl std::error::Error for FompiError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FompiError::Fabric(e) => Some(e),
            _ => None,
        }
    }
}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, FompiError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        let e = FompiError::OutOfBounds { target: 2, offset: 8, len: 8, win_size: 10 };
        assert!(e.to_string().contains("target 2"));
        let e = FompiError::NoAccessEpoch { target: 1 };
        assert!(e.to_string().contains("access epoch"));
    }

    #[test]
    fn fabric_error_converts() {
        let fe = FabricError::UnknownKey(fompi_fabric::SegKey { rank: 0, id: 9 });
        let e: FompiError = fe.clone().into();
        assert_eq!(e, FompiError::Fabric(fe));
    }

    #[test]
    fn source_exposes_fabric_cause() {
        use std::error::Error;
        let fe = FabricError::Backpressure { retry_after_ns: 500 };
        let e: FompiError = fe.clone().into();
        let src = e.source().expect("wrapped fabric error must be the source");
        assert_eq!(src.to_string(), fe.to_string());
        assert!(e.is_transient());
        assert!(FompiError::RegionTableFull.source().is_none());
        assert!(!FompiError::RegionTableFull.is_transient());
    }
}
