//! Model-checker gate: the hook surface `fompi-mc` schedules through.
//!
//! The model checker (crate `fompi-mc`) explores rank interleavings by
//! serializing the whole job: at every *scheduling point* — a remote
//! operation about to touch shared state, a notification-ring
//! interaction, a wait loop about to re-poll, a runtime collective — the
//! acting rank announces itself to an installed [`McGate`] and parks
//! until the gate grants it the global execution token. The fabric side
//! (this module) only defines the vocabulary and the plumbing; the
//! scheduler, partial-order reduction and counterexample machinery live
//! in `fompi-mc`, which implements the trait.
//!
//! Gating follows the racecheck/faults idiom: no gate installed means a
//! clear bit in the endpoint's own [`crate::Hooks`] byte and zero behaviour
//! change. A gate is configuration ([`crate::Config::mc`],
//! `Universe::mc_gate`): installed before the fabric exists, never
//! mutated.
//!
//! # The conflict relation
//!
//! Partial-order reduction needs to know when two operations *commute*
//! (executing them in either order yields identical rank-visible state).
//! [`ops_conflict`] keys this on the same (window/segment, target,
//! byte-range, access-kind) tuple the dynamic race checker classifies —
//! [`McOp::kind`] is literally [`shadow::AccessKind`] — but with a
//! stricter predicate than race *legality*: a fetching AMO may legally
//! overlap a same-op accumulate (MPI-3.0 §11.7.1), yet the fetched value
//! observes the order, so the checker must still explore both orders.
//! [`shadow::kinds_commute`] carries the kind-level algebra shared by
//! both relations; [`McOp::fetch`] adds the result-observation bit the
//! shadow records do not need.
//!
//! Notification rings are modelled as single conflict objects
//! ([`McObj::Ring`]): every push, pop and emptiness probe on one rank's
//! ring conflicts with every other. This is deliberately conservative —
//! ring operations shift cursors and wake waiters, so almost every pair
//! genuinely fails to commute, and the pennies a finer relation would
//! save do not cover the soundness risk.

use crate::shadow::{self, AccessKind};
use std::fmt;

/// The shared object a scheduled operation acts on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum McObj {
    /// Bytes of a registered segment (a window's data or meta segment).
    Seg {
        /// Owning rank of the segment.
        owner: u32,
        /// Registration id ([`crate::SegKey::id`]).
        id: u64,
    },
    /// The notification ring of a rank (all ops on one ring conflict).
    Ring(u32),
}

/// One announced operation: what the rank is about to do to shared
/// state, in the vocabulary the DPOR conflict relation understands.
#[derive(Debug, Clone)]
pub struct McOp {
    /// Object acted on.
    pub obj: McObj,
    /// Byte interval `[lo, hi)` for segment objects (ignored for rings).
    pub lo: usize,
    /// Exclusive upper bound of the interval.
    pub hi: usize,
    /// Access class, shared with the race checker's shadow records.
    pub kind: AccessKind,
    /// Does the op return a value read from the object (fetching AMO,
    /// CAS)? A fetch observes ordering even where the overlap itself is
    /// MPI-legal, so it never commutes with a writer.
    pub fetch: bool,
    /// Static label for schedules and counterexamples (e.g. `"put"`).
    pub label: &'static str,
}

impl fmt::Display for McOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.obj {
            McObj::Ring(r) => write!(f, "{}@ring{}", self.label, r),
            McObj::Seg { owner, id } => {
                write!(f, "{}@seg{}.{}[{},{})", self.label, owner, id, self.lo, self.hi)
            }
        }
    }
}

/// Do two announced operations conflict — i.e. can swapping their order
/// change any rank-visible value? The segment arm is the shadow's
/// (window, target, byte-range, access-kind) relation plus the fetch
/// bit; ring operations conflict whenever they touch the same ring.
pub fn ops_conflict(a: &McOp, b: &McOp) -> bool {
    if a.obj != b.obj {
        return false;
    }
    match a.obj {
        McObj::Ring(_) => true,
        McObj::Seg { .. } => {
            if a.hi <= b.lo || b.hi <= a.lo {
                return false;
            }
            // Two pure reads commute no matter what they fetch.
            if !a.kind.writes() && !b.kind.writes() {
                return false;
            }
            if a.fetch || b.fetch {
                return true;
            }
            !shadow::kinds_commute(a.kind, b.kind)
        }
    }
}

/// The scheduling gate a model checker installs via
/// [`crate::Config::mc`]. Every method blocks the calling rank
/// until the checker grants it the execution token; the operation (or
/// poll re-check, or collective exit) then runs on the caller's thread.
///
/// Implementations abort an exploration by panicking out of these
/// methods with a payload the checker's own rank wrappers recognise —
/// the fabric never catches it.
pub trait McGate: Send + Sync {
    /// Announce `op` and park; on return the rank holds the token and
    /// must immediately perform exactly the announced operation.
    fn op(&self, rank: u32, op: McOp);

    /// Park until `pred` is true *and* the rank is scheduled. The gate
    /// evaluates `pred` under its own lock when computing enabled sets;
    /// `obj` names the conflict object the predicate observes (a wake is
    /// a read of that object, and participates in the conflict relation
    /// like any other).
    fn poll(
        &self,
        rank: u32,
        obj: McObj,
        label: &'static str,
        pred: Box<dyn Fn() -> bool + Send + Sync>,
    );

    /// Enter a job-wide collective; returns once every rank has arrived
    /// and this rank is scheduled out. The `bool` is the leader flag
    /// (lowest participating rank) — the runtime uses it to run
    /// leader-only work such as the shadow's `process_sync`.
    fn collective(&self, rank: u32, label: &'static str) -> bool;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shadow::ACC_NOOP;

    fn seg(lo: usize, hi: usize, kind: AccessKind, fetch: bool) -> McOp {
        McOp { obj: McObj::Seg { owner: 0, id: 1 }, lo, hi, kind, fetch, label: "t" }
    }

    #[test]
    fn disjoint_ranges_commute() {
        let a = seg(0, 8, AccessKind::Put, false);
        let b = seg(8, 16, AccessKind::Put, false);
        assert!(!ops_conflict(&a, &b));
    }

    #[test]
    fn overlapping_writes_conflict() {
        let a = seg(0, 8, AccessKind::Put, false);
        let b = seg(4, 12, AccessKind::Put, false);
        assert!(ops_conflict(&a, &b));
        assert!(ops_conflict(&b, &a));
    }

    #[test]
    fn reads_commute_and_read_write_does_not() {
        let r = seg(0, 8, AccessKind::Get, false);
        let w = seg(0, 8, AccessKind::Put, false);
        assert!(!ops_conflict(&r, &r.clone()));
        assert!(ops_conflict(&r, &w));
    }

    #[test]
    fn same_op_accumulates_commute_unless_fetching() {
        let sum = seg(0, 8, AccessKind::Acc(0), false);
        let sum_fetch = seg(0, 8, AccessKind::Acc(0), true);
        let min = seg(0, 8, AccessKind::Acc(1), false);
        // Matches the shadow's same-op carve-out...
        assert!(!ops_conflict(&sum, &sum.clone()));
        assert!(ops_conflict(&sum, &min));
        // ...but a fetching same-op AMO observes the order, so the
        // checker must explore both interleavings even though the
        // overlap is race-legal.
        assert!(ops_conflict(&sum, &sum_fetch));
        assert!(ops_conflict(&sum_fetch, &sum_fetch.clone()));
    }

    #[test]
    fn noop_read_amo_commutes_with_reads_only() {
        let noop = seg(0, 8, AccessKind::Acc(ACC_NOOP), true);
        let get = seg(0, 8, AccessKind::Get, false);
        let sum = seg(0, 8, AccessKind::Acc(0), false);
        assert!(!ops_conflict(&noop, &get));
        assert!(!ops_conflict(&noop, &noop.clone()));
        // Race-legal overlap (§11.7.1) that still fails to commute.
        assert!(ops_conflict(&noop, &sum));
    }

    #[test]
    fn ring_ops_always_conflict_on_the_same_ring() {
        let push = McOp {
            obj: McObj::Ring(2),
            lo: 0,
            hi: 0,
            kind: AccessKind::Put,
            fetch: false,
            label: "push",
        };
        let probe = McOp {
            obj: McObj::Ring(2),
            lo: 0,
            hi: 0,
            kind: AccessKind::Get,
            fetch: false,
            label: "probe",
        };
        let other = McOp { obj: McObj::Ring(3), ..probe.clone() };
        assert!(ops_conflict(&push, &probe));
        assert!(ops_conflict(&probe, &probe.clone()));
        assert!(!ops_conflict(&push, &other));
    }

    #[test]
    fn different_segments_never_conflict() {
        let a = McOp { obj: McObj::Seg { owner: 0, id: 1 }, ..seg(0, 8, AccessKind::Put, false) };
        let b = McOp { obj: McObj::Seg { owner: 0, id: 2 }, ..seg(0, 8, AccessKind::Put, false) };
        assert!(!ops_conflict(&a, &b));
    }

    #[test]
    fn op_display_is_compact() {
        assert_eq!(seg(0, 8, AccessKind::Put, false).to_string(), "t@seg0.1[0,8)");
        let ring = McOp {
            obj: McObj::Ring(1),
            lo: 0,
            hi: 0,
            kind: AccessKind::Get,
            fetch: false,
            label: "pop",
        };
        assert_eq!(ring.to_string(), "pop@ring1");
    }
}
