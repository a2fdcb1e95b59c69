//! Window-layer glue for the `fompi-check` race detector
//! ([`fompi_fabric::shadow`]).
//!
//! The window layer — not the raw endpoint — is the recording boundary:
//! it is the only place that can tell *user data* accesses apart from the
//! protocol AMOs on the meta segment (lock words, PSCW matching lists,
//! the accumulate lock), which legitimately race by design. Every public
//! communication call records one logical access per target byte
//! interval; the sync layer reports its epoch transitions. All helpers
//! gate on the endpoint's own [`Hooks`] byte, so the disabled cost matches
//! the fault-injection bar (PR 2).

use crate::op::MpiOp;
use crate::win::{AccessEpoch, LockType, Win, WinKind};
use fompi_fabric::shadow::{AccessKind, LockCtx, RaceViolation, Shadow, ACC_NOOP};
use fompi_fabric::telemetry::{Event, EventKind, Flavor};
use fompi_fabric::{AmoOp, Hooks};

/// Accumulate tag for compare-and-swap (never equal to an [`MpiOp`]
/// discriminant, and not the [`ACC_NOOP`] carve-out).
pub(crate) const ACC_CAS: u16 = u16::MAX - 1;

/// Map a reduction op to its shadow tag: same-tag overlap is permitted,
/// `MPI_NO_OP` (an atomic read) may overlap anything.
pub(crate) fn acc_tag(op: MpiOp) -> u16 {
    match op {
        MpiOp::NoOp => ACC_NOOP,
        other => other as u16,
    }
}

/// The shadow tag of a hardware AMO: that of the reduction op it
/// implements ([`MpiOp::hw_amo`]), [`ACC_CAS`] for compare-and-swap.
pub(crate) fn amo_tag(op: AmoOp) -> u16 {
    match op {
        AmoOp::Add => acc_tag(MpiOp::Sum),
        AmoOp::And => acc_tag(MpiOp::Band),
        AmoOp::Or => acc_tag(MpiOp::Bor),
        AmoOp::Xor => acc_tag(MpiOp::Bxor),
        AmoOp::Swap => acc_tag(MpiOp::Replace),
        AmoOp::Fetch => acc_tag(MpiOp::NoOp),
        AmoOp::Cas => ACC_CAS,
    }
}

impl Win {
    /// Checker arming probe: the entire disabled hot path.
    #[inline]
    pub(crate) fn rc_on(&self) -> bool {
        self.ep.hooks().has(Hooks::RACECHECK)
    }

    /// Virtual timestamp for the start of a recorded access span, taken
    /// only when the checker is armed.
    #[inline]
    pub(crate) fn rc_start(&self) -> Option<f64> {
        if self.rc_on() {
            Some(self.ep.clock().now())
        } else {
            None
        }
    }

    fn rc_shadow(&self) -> &Shadow {
        self.ep.fabric().shadow()
    }

    /// Lock context this origin holds toward `target` right now.
    fn rc_lock_ctx(&self, target: u32) -> LockCtx {
        let st = self.state.borrow();
        match &st.access {
            AccessEpoch::LockAll => LockCtx::Shared,
            AccessEpoch::Lock => match st.locks.get(&target) {
                Some(LockType::Exclusive) => LockCtx::Exclusive,
                Some(LockType::Shared) => LockCtx::Shared,
                None => LockCtx::NoLock,
            },
            _ => LockCtx::NoLock,
        }
    }

    /// Shadow-interval base for an access at `target_disp` whose resolved
    /// segment offset is `resolved`. Dynamic windows key intervals by the
    /// virtual attach address (unique across regions); everything else by
    /// the window byte offset.
    pub(crate) fn rc_base(&self, target_disp: usize, resolved: usize) -> usize {
        if self.shared.kind == WinKind::Dynamic {
            target_disp
        } else {
            resolved
        }
    }

    /// Record a remote access spanning `[lo, lo + len)` bytes of
    /// `target`'s window. `t_start` is the [`Win::rc_start`] probe value;
    /// call sites skip the call entirely when the probe returned `None`.
    #[inline(never)]
    #[cold]
    pub(crate) fn rc_remote(
        &self,
        t_start: f64,
        target: u32,
        lo: usize,
        len: usize,
        kind: AccessKind,
    ) {
        let viols = self.rc_shadow().record_remote(
            self.telemetry_id(),
            target,
            self.ep.rank(),
            lo,
            lo + len,
            kind,
            self.rc_lock_ctx(target),
            t_start,
            self.ep.clock().now(),
            self.ep.current_flow(),
        );
        self.rc_flag(viols);
        if matches!(kind, AccessKind::Acc(_)) {
            self.rc_atomic_own(target);
        }
    }

    /// Record a local load/store of `[off, off + len)` on this rank's own
    /// window memory.
    #[inline(never)]
    #[cold]
    pub(crate) fn rc_local(&self, off: usize, len: usize, write: bool) {
        let t = self.ep.clock().now();
        let viols = self.rc_shadow().record_local(
            self.telemetry_id(),
            self.ep.rank(),
            off,
            off + len,
            write,
            t,
            self.ep.current_flow(),
        );
        self.rc_flag(viols);
    }

    /// Route violations: telemetry first (so the `RaceReport` event is
    /// recorded even when `panic` mode aborts), then enforcement.
    fn rc_flag(&self, viols: Vec<RaceViolation>) {
        if viols.is_empty() {
            return;
        }
        let tel = self.ep.fabric().telemetry();
        if tel.enabled() {
            for v in &viols {
                tel.record(Event {
                    kind: EventKind::RaceReport,
                    flavor: Flavor::NotApplicable,
                    transport: None,
                    origin: v.a.origin,
                    target: v.b.origin,
                    win: v.win,
                    bytes: (v.hi - v.lo) as u64,
                    // Carry a causal flow id so the RaceReport joins the
                    // same Perfetto arcs as the accesses themselves: the
                    // later access's flow, or the earlier one's if the
                    // later carried none.
                    flow: if v.b.flow != fompi_fabric::telemetry::NO_FLOW {
                        v.b.flow
                    } else {
                        v.a.flow
                    },
                    t_start: v.a.t_start.min(v.b.t_start),
                    t_end: v.a.t_end.max(v.b.t_end),
                });
            }
        }
        // In panic mode the enforce below aborts the run: flush the
        // flight-recorder window first so the abort keeps its black box.
        if self.rc_shadow().mode() == fompi_fabric::shadow::RacecheckMode::Panic {
            self.ep.flight_dump("racecheck abort");
        }
        self.rc_shadow().enforce(&viols);
    }

    // --------------------------------------------------------- epoch edges
    //
    // Placement contract (see `fompi_fabric::shadow` docs): release-side
    // bumps (unlock, MCS hand-off) happen after the data is committed but
    // *before* the release word becomes visible to waiters; acquire-side
    // bumps (post, wait, notification consume) happen *after* the signal
    // is observed but before control returns to the caller.

    /// Collective fence completed (call after the barrier).
    pub(crate) fn rc_fence(&self) {
        if self.rc_on() {
            self.rc_shadow().fence(self.telemetry_id(), self.ep.rank());
        }
    }

    /// Same-origin completion edge: flush/flush_local (`Some(target)` or
    /// all-targets `None`), and per-target completion inside `complete`.
    pub(crate) fn rc_flush(&self, target: Option<u32>) {
        if self.rc_on() {
            self.rc_shadow().flush(self.telemetry_id(), self.ep.rank(), target);
        }
    }

    /// Passive-target lock acquired (`None` = lock_all / MCS global lock).
    pub(crate) fn rc_lock_acquired(&self, target: Option<u32>) {
        if self.rc_on() {
            self.rc_shadow().lock_acquired(self.telemetry_id(), self.ep.rank(), target);
        }
    }

    /// Passive-target lock about to be released (`None` = unlock_all /
    /// MCS hand-off).
    pub(crate) fn rc_unlock(&self, target: Option<u32>) {
        if self.rc_on() {
            self.rc_shadow().unlock(self.telemetry_id(), self.ep.rank(), target);
        }
    }

    /// Acquire edge on this rank's own window memory: PSCW post/wait,
    /// `win_sync`, or a consumed notification.
    pub(crate) fn rc_acquire_own(&self) {
        if self.rc_on() {
            self.rc_shadow().acquire_own(self.telemetry_id(), self.ep.rank());
        }
    }

    /// An accumulate-class op this rank issued at *itself* is a
    /// `win_sync`-equivalent acquire edge on this unified-model fabric:
    /// the flag-notification idiom (put → flush → FAA of the target's
    /// flag; the target polls its own flag with an atomic read, then
    /// reads the data locally) must order the poller's subsequent local
    /// reads after the producer's puts. Call after recording the access
    /// itself, so the atomic still conflicts with non-atomic overlap in
    /// the pre-edge epoch.
    /// Only passive-target epochs get the edge: there, concurrent
    /// producers' records are pinned to their lock sessions and stay
    /// conflict-visible across the bump. In an active epoch (fence/PSCW)
    /// nothing pins concurrent records, so a bump would excuse genuine
    /// same-epoch conflicts — and the epoch's own sync calls provide the
    /// ordering anyway.
    pub(crate) fn rc_atomic_own(&self, target: u32) {
        if target == self.ep.rank() && self.rc_lock_ctx(target) != LockCtx::NoLock {
            self.rc_acquire_own();
        }
    }

    /// Quiescence probe for [`Win::free`]: true when no access or
    /// exposure epoch is open and no locks are held.
    pub(crate) fn rc_free_clean(&self) -> bool {
        // A fence epoch is itself a synchronisation point: freeing after a
        // fence (without MPI_MODE_NOSUCCEED) is legal. Only passive locks
        // and PSCW epochs left open make the free unsynchronized.
        let st = self.state.borrow();
        matches!(st.access, AccessEpoch::None | AccessEpoch::Fence)
            && matches!(
                st.exposure,
                crate::win::ExposureEpoch::None | crate::win::ExposureEpoch::Fence
            )
            && st.locks.is_empty()
    }

    /// Mark this window freed (flags a violation when `clean` is false).
    pub(crate) fn rc_freed(&self, clean: bool) {
        let t = self.ep.clock().now();
        let viols = self.rc_shadow().window_freed(self.telemetry_id(), self.ep.rank(), t, clean);
        self.rc_flag(viols);
    }
}
