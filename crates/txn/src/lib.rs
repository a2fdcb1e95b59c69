//! `fompi-txn`: transactional remote data structures over foMPI RMA.
//!
//! A thin optimistic-concurrency layer in the style of Storm's "fast
//! transactional dataplane": remote objects are *versioned cells* — a
//! seqlock-style 8-byte version word followed by the payload, both in
//! ordinary window memory — and writes go through a CAS-based optimistic
//! multi-key commit built purely from the MPI-3 one-sided primitives the
//! paper accelerates (`compare_and_swap`, `accumulate`, fetching atomics
//! issued back to back and completed together — [`fompi::Win::amo_fetch_list`]
//! — and `flush`). No receiver-side CPU touches the data path.
//!
//! ## Version-word protocol
//!
//! * An **even** version means the cell is unlocked; **odd** means a
//!   commit holds it.
//! * A [`read`](Txn::read) is one pipelined list of fetching AMOs — the
//!   version, the payload words, the version again — checked locally: if
//!   either version is odd or the two differ, the read was torn and fails
//!   with [`TxnError::TornRead`] (transient — retry).
//! * A [`commit`](Txn::commit) sorts its write set by (rank,
//!   displacement) — the global lock order that makes symmetric conflicts
//!   deadlock-free — then per key CASes `v → v+1` where `v` is the
//!   version observed at read time. The CAS *is* the validation: it fails
//!   iff the cell changed or is locked. Payloads are then written with
//!   accumulate(REPLACE), flushed, and the keys are published with CASes
//!   `v+1 → v+2`, one list per target, and a final flush.
//! * On a lock conflict the already-locked prefix is rolled back
//!   (`v+1 → v`) and the attempt aborts with [`TxnError::Conflict`].
//! * A transaction that staged no write commits by re-checking the
//!   version of every cell it read except the last, and flushes nothing:
//!   it serialises at its last read ([`txn`] has the argument).
//!
//! All remote accesses are accumulate-class ops (CAS, `MPI_NO_OP` reads,
//! `MPI_REPLACE` writes), so the racecheck shadow model sees only
//! same-op/no-op accumulate overlap — permitted by MPI-3 §11.7.1 — and
//! the commit path is racecheck-clean by construction.
//!
//! ## Retry
//!
//! [`RetryPolicy`] drives the retry loop ([`run`]): immediate retry or
//! capped exponential backoff with seeded jitter (`fabric::rng`), charged
//! to the rank's *virtual* clock. An exhausted budget surfaces as
//! [`TxnError::RetriesExhausted`], which is transient
//! ([`TxnError::is_transient`]) exactly like the notified-access
//! backpressure path, so callers can shed load instead of spinning.

pub mod retry;
pub mod txn;
pub mod versioned;

pub use retry::RetryPolicy;
pub use txn::{run, run_with, CommitStats, Txn, TxnSets};
pub use versioned::{versions_consistent, VersionedCell};

use fompi::FompiError;

/// Transaction-layer errors. The conflict/torn/exhausted variants are
/// *transient*: the data structure is unchanged and the operation can be
/// retried (or shed) safely.
#[derive(Debug)]
pub enum TxnError {
    /// A commit lost the lock CAS on a cell: it changed (or is locked)
    /// since this transaction read it. The attempt rolled back.
    Conflict {
        /// Rank owning the contended cell.
        target: u32,
        /// Displacement of the cell's version word.
        disp: usize,
    },
    /// A versioned read observed a locked (odd) or changing version.
    TornRead {
        /// Rank owning the cell.
        target: u32,
        /// Displacement of the cell's version word.
        disp: usize,
    },
    /// The retry budget ran out before a clean attempt. Transient by
    /// design: surfacing beats spinning (cf. notify backpressure).
    RetriesExhausted {
        /// Attempts made before giving up.
        attempts: u32,
    },
    /// A write was staged for a cell this transaction never read; the
    /// commit has no version to validate against.
    BlindWrite {
        /// Rank owning the cell.
        target: u32,
        /// Displacement of the cell's version word.
        disp: usize,
    },
    /// A structure built on cells has no room where the caller needs it:
    /// `probed` cells on rank `target` examined, none free. Not transient —
    /// a retry walks the same cells; the structure was sized too small.
    Full {
        /// Rank owning the exhausted cells.
        target: u32,
        /// Cells examined before giving up.
        probed: usize,
    },
    /// A payload buffer that is not the cell's payload size was handed to a
    /// read or a write. Refused before any fabric op; not transient — a
    /// retry passes the same buffer.
    PayloadSize {
        /// Rank owning the cell.
        target: u32,
        /// Displacement of the cell's version word.
        disp: usize,
        /// The cell's payload bytes.
        expected: usize,
        /// The buffer's bytes.
        got: usize,
    },
    /// A cell whose version word is not 8-byte aligned, or whose payload
    /// is not a positive multiple of 8 bytes (payloads move as 8-byte
    /// accumulate elements). Refused before any fabric op; not transient.
    Layout {
        /// Rank owning the cell.
        target: u32,
        /// Displacement of the cell's version word.
        disp: usize,
        /// The cell's payload bytes.
        payload_len: usize,
    },
    /// An underlying RMA error (epoch misuse, bounds, fabric faults).
    Fompi(FompiError),
}

impl From<FompiError> for TxnError {
    fn from(e: FompiError) -> Self {
        TxnError::Fompi(e)
    }
}

impl TxnError {
    /// Would a retry (or load shed) make sense? True for conflicts, torn
    /// reads and budget exhaustion — and for transient fabric errors
    /// (backpressure, busy segments) bubbling up from below.
    pub fn is_transient(&self) -> bool {
        match self {
            TxnError::Conflict { .. }
            | TxnError::TornRead { .. }
            | TxnError::RetriesExhausted { .. } => true,
            TxnError::BlindWrite { .. }
            | TxnError::Full { .. }
            | TxnError::PayloadSize { .. }
            | TxnError::Layout { .. } => false,
            TxnError::Fompi(e) => e.is_transient(),
        }
    }
}

impl std::fmt::Display for TxnError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TxnError::Conflict { target, disp } => {
                write!(f, "commit conflict on cell rank={target} disp={disp} (transient)")
            }
            TxnError::TornRead { target, disp } => {
                write!(f, "torn versioned read on cell rank={target} disp={disp} (transient)")
            }
            TxnError::RetriesExhausted { attempts } => {
                write!(f, "transaction retry budget exhausted after {attempts} attempts")
            }
            TxnError::BlindWrite { target, disp } => {
                write!(f, "write staged for unread cell rank={target} disp={disp}")
            }
            TxnError::Full { target, probed } => {
                write!(f, "no free cell among the {probed} probed on rank={target}: structure full")
            }
            TxnError::PayloadSize { target, disp, expected, got } => write!(
                f,
                "payload buffer of {got} bytes for cell rank={target} disp={disp}, which holds {expected}"
            ),
            TxnError::Layout { target, disp, payload_len } => write!(
                f,
                "cell rank={target} disp={disp} with a {payload_len}-byte payload: the version \
                 word must be 8-byte aligned and the payload a positive multiple of 8 bytes"
            ),
            TxnError::Fompi(e) => write!(f, "rma error in transaction: {e}"),
        }
    }
}

impl std::error::Error for TxnError {}

/// Result alias for the transaction layer.
pub type Result<T> = std::result::Result<T, TxnError>;
