//! Per-rank communication endpoint — the DMAPP-like API surface.
//!
//! Every operation comes in the three DMAPP completion flavours (§2.1):
//!
//! * **blocking** — returns when remotely complete (clock joined with the
//!   completion time);
//! * **explicit nonblocking** (`*_nb`) — returns an [`NbHandle`] that
//!   [`Endpoint::wait`] completes individually;
//! * **implicit nonblocking** (`*_implicit`) — completed only in bulk by
//!   [`Endpoint::gsync`] (or per-target by [`Endpoint::flush_target`],
//!   which Gemini exposes as completion queues per endpoint).
//!
//! Data always moves immediately (the simulation is sequentially consistent
//! at the memory level); the flavours differ in how *virtual time* is
//! accounted, which is what the paper's figures measure.
//!
//! Every op body is the same steps (`begin`, `price`, the memory effect,
//! its disposition, `finish`) and every diagnostic plane sits behind a bit
//! of the endpoint's own [`Hooks`] byte: DESIGN.md, "Anatomy of a fabric op".
//!
//! ## Stamped sync variables
//!
//! Protocol words that other ranks block on (completion counters, lock
//! words, matching-list heads) are 16-byte cells: a value word followed by a
//! timestamp word. The `*_sync` operations update/read both so that causal
//! virtual time flows through synchronisation.
//!
//! **A stamp is published before the value it dates.** A writer raises the
//! stamp (`fetch_max`, AcqRel) and only then applies the value effect (an
//! AcqRel AMO or a Release store); [`Endpoint::read_sync`] loads the value
//! (Acquire), then the stamp. A reader that sees the new value synchronises
//! with that write, hence with the raise sequenced before it, so the stamp
//! it loads is at least the write's completion time. A reader that sees the
//! new stamp with the old value only joins a time it was going to wait for
//! anyway (`join` is a `max`). Value first lets a reader land between the
//! two and leave with the new value dated by the old stamp: an early join,
//! on some schedules only.

use crate::amo::{AmoOp, FetchAmo};
use crate::batch::{Burst, BurstKind};
use crate::clock::{bits_to_stamp, stamp_to_bits, Clock};
use crate::config::Hooks;
use crate::cost::{CostModel, Transport};
use crate::counters::RankCounters;
use crate::error::FabricError;
use crate::mc::{McObj, McOp};
use crate::notify::NotifyRecord;
use crate::segment::{SegKey, Segment};
use crate::shadow::AccessKind;
use crate::stripes::StripedHorizon;
use crate::telemetry::{flow_id, Event, EventKind, Flavor, NO_FLOW, NO_TARGET};
use crate::translate::Translations;
use crate::Fabric;
use std::cell::{Cell, Ref, RefCell};
use std::collections::BTreeMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// Completion handle for an explicit-nonblocking operation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NbHandle {
    /// Virtual time at which the operation is remotely complete.
    pub t_complete: f64,
}

/// What an op body issues, in the one vocabulary the cost model, the
/// counters, the trace and the model checker are each asked in.
#[derive(Clone, Copy)]
enum Op {
    Put,
    Get,
    /// An 8-byte AMO, and whether the origin observes the old value.
    Amo(AmoOp, bool),
    /// A notification record: priced as an AMO, counted and traced as a post.
    Notify,
}

impl Op {
    /// Unperturbed wire latency of `len` bytes over `t`.
    #[inline]
    fn latency(self, m: &CostModel, t: Transport, len: usize) -> f64 {
        match self {
            Op::Put => m.put_latency(t, len),
            Op::Get => m.get_latency(t, len),
            Op::Amo(..) | Op::Notify => m.amo_latency(t),
        }
    }

    #[inline]
    fn kind(self) -> EventKind {
        match self {
            Op::Put => EventKind::Put,
            Op::Get => EventKind::Get,
            Op::Amo(..) => EventKind::Amo,
            Op::Notify => EventKind::NotifyPost,
        }
    }

    /// Model-checker vocabulary: the access kind plus whether the op must
    /// be treated as order-observing. For an AMO that is the reduction tag
    /// and the fetch bit: same-op `Add`/`And`/`Or`/`Xor` commute; `Swap`
    /// and `Cas` never commute with themselves, so they always carry the
    /// fetch bit; a pure `Fetch` is the atomic-read carve-out.
    fn access(self) -> (AccessKind, bool) {
        match self {
            Op::Put | Op::Notify => (AccessKind::Put, false),
            Op::Get => (AccessKind::Get, false),
            Op::Amo(AmoOp::Add, fetch) => (AccessKind::Acc(0), fetch),
            Op::Amo(AmoOp::And, fetch) => (AccessKind::Acc(1), fetch),
            Op::Amo(AmoOp::Or, fetch) => (AccessKind::Acc(2), fetch),
            Op::Amo(AmoOp::Xor, fetch) => (AccessKind::Acc(3), fetch),
            Op::Amo(AmoOp::Swap, _) => (AccessKind::Acc(4), true),
            Op::Amo(AmoOp::Cas, _) => (AccessKind::Acc(5), true),
            Op::Amo(AmoOp::Fetch, fetch) => (AccessKind::Acc(crate::shadow::ACC_NOOP), fetch),
        }
    }
}

/// What [`Endpoint::price`] decided: the clock before the injection
/// charge, the remote completion time, and the wire latency plus fault
/// extra a blocking op waits out after issue.
struct Priced {
    t_start: f64,
    t_complete: f64,
    wire: f64,
}

/// Per-rank endpoint. Owns the rank's virtual [`Clock`]; deliberately
/// neither `Send` nor `Sync`: it lives on its rank's thread, and a
/// reference to it cannot leave that thread —
///
/// ```compile_fail,E0277
/// use fompi_fabric::{CostModel, Endpoint, Fabric};
/// let ep = Endpoint::new(Fabric::new(2, 1, CostModel::default()), 0);
/// std::thread::scope(|s| {
///     s.spawn(|| ep.rank()); // `&Endpoint` is not `Send`: `Endpoint` is `!Sync`
/// });
/// ```
///
/// — so the state an op keeps here (clock, completion horizons, open
/// bursts, translations) is plain `Cell`s and `RefCell`s that no other core
/// can observe. Only what another rank really reads is atomic: segment
/// words, stamps, notification rings and the fabric's
/// [`Counters`](crate::Counters).
///
/// Implicit-nonblocking completion horizons are tracked by a
/// `StripedHorizon`: rank-private striped maxima that
/// `flush_target`/`gsync` read without a hash lookup or a dynamic borrow,
/// and that an op raises with a compare and a plain store. When issue-side
/// batching is enabled
/// ([`Endpoint::set_batching`], or `FOMPI_BATCH`/the fabric default), small
/// implicit puts and non-fetching AMOs are write-combined into per-target
/// injection bursts (see [`crate::batch`]) that retire at the next
/// flush/gsync/ordered release or when coalescing stops.
pub struct Endpoint {
    fabric: Arc<Fabric>,
    rank: u32,
    /// The fabric's [`Hooks`], copied: a hook site tests this rank-private
    /// byte, so a disarmed op reads nothing shared to find that out.
    hooks: Hooks,
    /// [`Fabric::spins`], copied for [`Endpoint::idle`].
    spins: bool,
    clock: Clock,
    pending: StripedHorizon,
    /// Resolved registration keys (see [`crate::translate`]).
    translations: Translations,
    /// Open injection bursts, one per target. A BTree so drains walk
    /// targets in a deterministic order.
    bursts: RefCell<BTreeMap<u32, Burst>>,
    /// Issue-side batching switch (default: the fabric's batch default).
    batch: Cell<bool>,
    /// Telemetry window scope: the window id upper layers attribute
    /// subsequent operations to (0 = none). See [`Endpoint::set_trace_win`].
    trace_win: Cell<u64>,
    /// Next per-rank flow sequence number (see [`crate::telemetry::flow_id`]).
    /// Advances only while tracing is armed, so disabled runs pay nothing.
    flow_seq: Cell<u64>,
    /// The causal flow scope in force: operations issued while it is
    /// nonzero carry this flow id (0 = no scope). See [`Endpoint::flow_open`].
    cur_flow: Cell<u64>,
}

impl Endpoint {
    /// Create the endpoint for `rank` on `fabric`.
    pub fn new(fabric: Arc<Fabric>, rank: u32) -> Self {
        let (hooks, spins, batch) = (fabric.hooks(), fabric.spins(), fabric.batch_default());
        Self {
            fabric,
            rank,
            hooks,
            spins,
            clock: Clock::new(),
            pending: StripedHorizon::default(),
            translations: Translations::new(),
            bursts: RefCell::new(BTreeMap::new()),
            batch: Cell::new(batch),
            trace_win: Cell::new(0),
            flow_seq: Cell::new(0),
            cur_flow: Cell::new(NO_FLOW),
        }
    }

    /// The owning rank.
    pub fn rank(&self) -> u32 {
        self.rank
    }

    /// The shared fabric.
    pub fn fabric(&self) -> &Arc<Fabric> {
        &self.fabric
    }

    /// Which diagnostic planes are armed: this endpoint's copy of
    /// [`Fabric::hooks`], fixed at launch.
    #[inline]
    pub fn hooks(&self) -> Hooks {
        self.hooks
    }

    /// One miss of a wait that polls this rank's own memory, the
    /// `misses`-th in a row: a [`std::hint::spin_loop`] for the first
    /// [`Endpoint::IDLE_SPINS`] if [`Fabric::spins`], a thread yield
    /// after that. Free in virtual time, like the local poll it follows.
    #[inline(always)]
    pub fn idle(&self, misses: u64) {
        if self.spins && misses <= Self::IDLE_SPINS {
            std::hint::spin_loop();
        } else {
            std::thread::yield_now();
        }
    }

    /// Misses [`Endpoint::idle`] spins through before it yields: on the
    /// 2-vCPU reference box a spin-loop hint takes ~21 ns (a yield ~340
    /// ns), so the hints alone last about the 20 µs a collective
    /// rendezvous spins before it blocks.
    pub const IDLE_SPINS: u64 = 1 << 10;

    /// This rank's virtual clock.
    pub fn clock(&self) -> &Clock {
        &self.clock
    }

    /// Charge `ns` of CPU time (software overhead, compute, ...).
    pub fn charge(&self, ns: f64) {
        self.clock.advance(ns);
    }

    /// Charge `n` floating-point operations of compute.
    pub fn charge_flops(&self, n: f64) {
        self.clock.advance(n * self.fabric.model().ns_per_flop);
    }

    /// Transport used to reach `target`.
    pub fn transport_to(&self, target: u32) -> Transport {
        self.fabric.transport(self.rank, target)
    }

    // ----------------------------------------------------------- telemetry

    /// Set the telemetry window scope: RMA/sync events recorded after this
    /// call are attributed to window `win` (the window layer passes its
    /// symmetric meta id; 0 clears the scope). Returns the previous scope so
    /// nested callers can restore it. A few-instruction no-op cost.
    #[inline]
    pub fn set_trace_win(&self, win: u64) -> u64 {
        self.trace_win.replace(win)
    }

    /// Current telemetry window scope.
    #[inline]
    pub fn trace_win(&self) -> u64 {
        self.trace_win.get()
    }

    /// The one [`Event`] constructor: a span of this rank's about `target`,
    /// against the current window scope; `via` is the peer whose transport
    /// it is attributed to ([`NO_TARGET`]: none).
    #[allow(clippy::too_many_arguments)]
    #[inline]
    fn trace(
        &self,
        kind: EventKind,
        flavor: Flavor,
        target: u32,
        via: u32,
        bytes: u64,
        flow: u64,
        t_start: f64,
        t_end: f64,
    ) {
        if !self.hooks.has(Hooks::TRACE) {
            return;
        }
        self.fabric.telemetry().record(Event {
            kind,
            flavor,
            transport: (via != NO_TARGET).then(|| self.transport_to(via)),
            origin: self.rank,
            target,
            win: self.trace_win.get(),
            bytes,
            flow,
            t_start,
            t_end,
        });
    }

    /// A flowless, payload-free span about `target` (sync events, injected
    /// perturbations).
    #[inline]
    fn trace_span(&self, kind: EventKind, target: u32, t_start: f64, t_end: f64) {
        self.trace(kind, Flavor::NotApplicable, target, target, 0, NO_FLOW, t_start, t_end);
    }

    /// Record a synchronisation event spanning `t_start..now` against the
    /// current window scope. `target` is the peer involved, or
    /// [`NO_TARGET`] for collective/epoch-wide actions. Upper layers (fence,
    /// PSCW, lock, flush) call this at epoch entry/exit.
    #[inline]
    pub fn trace_sync(&self, kind: EventKind, target: u32, t_start: f64) {
        self.trace_span(kind, target, t_start, self.clock.now());
    }

    /// Count an epoch call of `kind` on the job's sync line, where the
    /// kind has a counter (fence, lock, unlock, flush; a constant of the
    /// caller's call site). The sync layer's calls count themselves here
    /// when they leave.
    #[inline]
    pub fn count_epoch(&self, kind: EventKind) {
        let c = &self.fabric.counters().sync;
        let counter = match kind {
            EventKind::Fence => &c.fences,
            EventKind::Lock | EventKind::LockAll => &c.locks,
            EventKind::Unlock | EventKind::UnlockAll => &c.unlocks,
            EventKind::Flush | EventKind::FlushLocal => &c.flushes,
            _ => return,
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Count `n` notification records this rank discarded unconsumed —
    /// from its ring ([`Endpoint::notify_drop_all`]) or from a window's
    /// own stash of records it popped but never matched.
    pub fn count_dropped(&self, n: u64) {
        self.block().notify_dropped.fetch_add(n, Ordering::Relaxed);
    }

    // ------------------------------------------------------- causal flows

    /// Open a causal flow scope: operations issued until the matching
    /// [`Endpoint::flow_close`] carry one fresh flow id, so a multi-part
    /// primitive (notified put = data put + notification post) shows up in
    /// the trace as a single origin→target flow arrow. Returns the
    /// previous scope for the caller to restore; an already-open scope is
    /// reused (nested callers join the outer flow). When tracing is off no
    /// id is allocated and ops carry 0.
    #[inline]
    pub fn flow_open(&self) -> u64 {
        let prev = self.cur_flow.get();
        if prev == NO_FLOW && self.hooks.has(Hooks::TRACE) {
            let seq = self.flow_seq.get();
            self.flow_seq.set(seq + 1);
            self.cur_flow.set(flow_id(self.rank, seq));
        }
        prev
    }

    /// Close a flow scope opened by [`Endpoint::flow_open`], restoring the
    /// previous scope it returned.
    #[inline]
    pub fn flow_close(&self, prev: u64) {
        self.cur_flow.set(prev);
    }

    /// The flow id in scope ([`NO_FLOW`] when none). Upper layers stash
    /// this next to protocol words their peers poll so the consumer side
    /// can join the flow (see [`crate::telemetry::Telemetry::take_signal_flow`]).
    #[inline]
    pub fn current_flow(&self) -> u64 {
        self.cur_flow.get()
    }

    /// Record target-side consumption of a flow-carrying event — the
    /// notify-ring pop or signal-wait completion that observes another
    /// rank's operation. `source` is the producing rank, `t_start` when
    /// this rank began waiting, `flow` the id carried by the consumed
    /// record (0 traces a plain wait with no arrow). The event spans
    /// `t_start..now` so the flow arrow terminates inside the wait span.
    #[inline]
    pub fn trace_flow_consume(
        &self,
        kind: EventKind,
        source: u32,
        t_start: f64,
        flow: u64,
        bytes: u64,
    ) {
        // A record this rank sent itself crossed no transport.
        let via = if source == self.rank { NO_TARGET } else { source };
        let now = self.clock.now();
        self.trace(kind, Flavor::NotApplicable, source, via, bytes, flow, t_start, now);
    }

    // -------------------------------------------------------------- faults

    /// Draw and apply issue-side faults for one operation toward `target`
    /// whose unperturbed wire latency is `base_lat`. Rank pauses and
    /// injection-queue stalls are charged to the clock here, at issue;
    /// the return value is extra *completion* latency (jitter + spike,
    /// plus a retirement delay when `delayable`) for the caller to fold
    /// into the op's completion time.
    #[inline]
    fn apply_faults(&self, target: u32, base_lat: f64, delayable: bool) -> f64 {
        if !self.hooks.has(Hooks::FAULTS) {
            return 0.0;
        }
        self.apply_faults_slow(target, base_lat, delayable)
    }

    #[inline(never)]
    fn apply_faults_slow(&self, target: u32, base_lat: f64, delayable: bool) -> f64 {
        let d = self.fabric.faults().draw_op(self.rank, base_lat, delayable);
        if d.pause_ns > 0.0 {
            let t0 = self.clock.now();
            self.clock.advance(d.pause_ns);
            self.trace_span(EventKind::FaultPause, target, t0, self.clock.now());
        }
        if d.stall_ns > 0.0 {
            let t0 = self.clock.now();
            self.clock.advance(d.stall_ns);
            self.trace_span(EventKind::FaultBackpressure, target, t0, self.clock.now());
        }
        if d.extra_ns > 0.0 {
            let t0 = self.clock.now();
            self.trace_span(EventKind::FaultJitter, target, t0, t0 + d.extra_ns);
        }
        if d.delay_ns > 0.0 {
            let t0 = self.clock.now();
            self.trace_span(EventKind::FaultDelay, target, t0, t0 + d.delay_ns);
        }
        d.extra_ns + d.delay_ns
    }

    /// Backpressure check for explicit-nonblocking issues: under an armed
    /// plan the injection queue may refuse the op outright — nothing is
    /// issued and the caller must retry after the hinted delay.
    #[inline]
    fn check_reject(&self, target: u32) -> Result<(), FabricError> {
        if !self.hooks.has(Hooks::FAULTS) {
            return Ok(());
        }
        if let Some(retry_after_ns) = self.fabric.faults().draw_reject(self.rank) {
            let t0 = self.clock.now();
            self.trace_span(EventKind::FaultBackpressure, target, t0, t0);
            return Err(FabricError::Backpressure { retry_after_ns });
        }
        Ok(())
    }

    // ------------------------------------------------- the steps of an op

    /// Every op body on a segment starts here. An AMO first asks for the
    /// shared sync counter line it will write; then `key` is translated and
    /// the span `[off, off + len)` checked — in bounds, and word-aligned for
    /// an AMO, which is refused here as an error before anything is
    /// priced, counted, announced or written ([`Segment::word`]'s assert
    /// stays as the internal invariant). The segment is borrowed from this
    /// endpoint's translation cache, so the borrow must end before the next
    /// operation (every caller drops it on return).
    #[inline(always)] // a call here costs every op its `Result<Ref>` through memory
    fn locate(
        &self,
        key: SegKey,
        off: usize,
        len: usize,
        op: Op,
    ) -> Result<Ref<'_, Segment>, FabricError> {
        if matches!(op, Op::Amo(..)) {
            // First thing an AMO does, so the sync line's transfer overlaps
            // all the rest (`Counters::touch`). Every other class counts on
            // this rank's own block, which no other core writes.
            self.fabric.counters().touch();
            Self::word_aligned(key, off)?;
        }
        let seg = self.translations.lookup(&self.fabric, key)?;
        if !seg.check(off, len) {
            return Err(FabricError::OutOfBounds { key, offset: off, len, seg_len: seg.len() });
        }
        Ok(seg)
    }

    /// A word operation at `off` names an 8-byte-aligned word, or is refused.
    #[inline]
    fn word_aligned(key: SegKey, off: usize) -> Result<(), FabricError> {
        off.is_multiple_of(8).then_some(()).ok_or(FabricError::Misaligned { key, offset: off })
    }

    /// Announce the access `[off, off + len)` to the model checker.
    #[inline]
    fn announce(&self, key: SegKey, off: usize, len: usize, op: Op, label: &'static str) {
        if self.hooks.has(Hooks::MC) {
            let (kind, fetch) = op.access();
            let obj = McObj::Seg { owner: key.rank, id: key.id };
            self.mc_announce(McOp { obj, lo: off, hi: off + len, kind, fetch, label });
        }
    }

    /// [`Endpoint::locate`] a span and [`Endpoint::announce`] it as one
    /// access: the prologue of every op that is one access.
    #[inline(always)]
    fn begin(
        &self,
        key: SegKey,
        off: usize,
        len: usize,
        op: Op,
        label: &'static str,
    ) -> Result<Ref<'_, Segment>, FabricError> {
        let seg = self.locate(key, off, len, op)?;
        self.announce(key, off, len, op, label);
        Ok(seg)
    }

    /// Price one op of `len` bytes toward `target`: the one fault draw, the
    /// one injection charge, and the completion time — which an ordered op
    /// floors at the horizon it must trail (`floor`; `None` for the rest).
    ///
    /// `issued` is the flavour the fault plane draws for (a blocking
    /// completion may be perturbed but cannot retire late), `None` for a
    /// poll. Draws happen only at issue-side call sites executed a
    /// deterministic number of times (put/get/AMO issue, releases, gsync)
    /// — never inside polling primitives (`read_sync`, `amo_sync` retry
    /// loops), whose call counts depend on thread scheduling. See
    /// [`crate::faults`] for the determinism contract.
    #[inline]
    fn price(
        &self,
        op: Op,
        target: u32,
        len: usize,
        issued: Option<Flavor>,
        floor: Option<f64>,
    ) -> Priced {
        let t = self.transport_to(target);
        let m = self.fabric.model();
        let lat = op.latency(m, t, len);
        let extra = match issued {
            Some(flavor) => self.apply_faults(target, lat, flavor != Flavor::Blocking),
            None => 0.0,
        };
        let t_start = self.clock.now();
        self.clock.advance(m.inject(t));
        let own = self.clock.now() + lat + extra;
        Priced { t_start, t_complete: floor.map_or(own, |f| own.max(f)), wire: lat + extra }
    }

    /// This endpoint's counter block: what its puts, gets, notifications
    /// and bursts write.
    #[inline(always)]
    fn block(&self) -> &RankCounters {
        self.fabric.counters().rank(self.rank)
    }

    /// Count one operation and, where the class keeps a volume, its
    /// payload (`None` from a stamped put or read: they count none). An
    /// AMO counts on the job's shared sync line and its volume is derived
    /// (8 bytes each, [`Counters::snapshot`](crate::Counters::snapshot));
    /// every other class counts on this endpoint's own block.
    #[inline]
    fn count(&self, op: Op, payload: Option<u64>) {
        let (ops, volume) = match op {
            Op::Amo(..) => (&self.fabric.counters().sync.amos, None),
            Op::Put => (&self.block().puts, Some(&self.block().bytes_put)),
            Op::Get => (&self.block().gets, Some(&self.block().bytes_get)),
            Op::Notify => (&self.block().notify_posts, None),
        };
        ops.fetch_add(1, Ordering::Relaxed);
        if let (Some(volume), Some(bytes)) = (volume, payload) {
            volume.fetch_add(bytes, Ordering::Relaxed);
        }
    }

    /// Close an observable op: count it and trace its span in the flow in
    /// scope.
    #[inline]
    fn finish(&self, op: Op, flavor: Flavor, target: u32, bytes: u64, (t0, t1): (f64, f64)) {
        self.count(op, Some(bytes));
        self.trace(op.kind(), flavor, target, target, bytes, self.cur_flow.get(), t0, t1);
    }

    /// Write a stamped cell: raise the stamp to `t_complete`, *then* apply
    /// the value effect (the module docs say why in that order).
    #[inline]
    fn publish<R>(seg: &Segment, off: usize, t_complete: f64, effect: impl FnOnce() -> R) -> R {
        seg.word(off + 8).fetch_max(stamp_to_bits(t_complete), Ordering::AcqRel);
        effect()
    }

    /// How many of this endpoint's translations went to the fabric-wide
    /// registry ([`Fabric::resolve`]) instead of its private cache: one per
    /// key in steady state, one more per key after any deregistration.
    /// Rank-private, so reading it perturbs nothing.
    pub fn translation_misses(&self) -> u64 {
        self.translations.misses()
    }

    // ------------------------------------------------ issue-side batching

    /// Is issue-side batching enabled on this endpoint?
    #[inline]
    pub fn batching(&self) -> bool {
        self.batch.get()
    }

    /// Enable/disable issue-side batching (see [`crate::batch`]). Returns
    /// the previous setting. Disabling retires any open bursts so no
    /// completion accounting is left behind.
    pub fn set_batching(&self, on: bool) -> bool {
        let prev = self.batch.replace(on);
        if prev && !on {
            self.drain_all();
        }
        prev
    }

    /// Number of open (not yet retired) injection bursts — for tests and
    /// introspection.
    pub fn open_bursts(&self) -> usize {
        self.bursts.borrow().len()
    }

    /// Retire the open burst toward `target`, if any, folding its
    /// completion horizon into the striped counters. Charges no CPU time:
    /// the burst's injection and gaps were paid at issue.
    pub fn drain_target(&self, target: u32) {
        let b = self.bursts.borrow_mut().remove(&target);
        if let Some(b) = b {
            self.retire(b, EventKind::BatchFlush);
        }
    }

    /// Retire every open burst (deterministic target order).
    pub fn drain_all(&self) {
        let drained = std::mem::take(&mut *self.bursts.borrow_mut());
        for b in drained.into_values() {
            self.retire(b, EventKind::BatchFlush);
        }
    }

    /// Append one issued operation to the target's open burst, or retire
    /// the incompatible burst and open a fresh one. The first op of a burst
    /// pays the full injection overhead `o`; each coalesced member pays
    /// only the gap `g`.
    fn enqueue(&self, key: SegKey, kind: BurstKind, off: usize, len: usize, extra_ns: f64) {
        let t = self.transport_to(key.rank);
        let m = self.fabric.model();
        let mut bursts = self.bursts.borrow_mut();
        if let Some(b) = bursts.get_mut(&key.rank) {
            if b.accepts(key, kind, off, len, m.dmapp_proto_change_bytes, m.batch_max_ops) {
                self.clock.advance(m.gap(t));
                b.push(len, extra_ns);
                return;
            }
            let old = bursts.remove(&key.rank).expect("open burst just observed");
            self.retire(old, EventKind::BatchSplit);
        }
        let t_open = self.clock.now();
        self.clock.advance(m.inject(t));
        bursts.insert(
            key.rank,
            Burst::open(key, kind, off, len, extra_ns, t_open, self.cur_flow.get()),
        );
    }

    /// Compute a retired burst's completion horizon and record it. Puts
    /// ship as one wire message of the combined size; AMO chains pipeline
    /// behind the first AMO at gap spacing. The slowest member's fault
    /// extra delays the whole burst.
    fn retire(&self, b: Burst, how: EventKind) {
        let target = b.key.rank;
        let t = self.transport_to(target);
        let m = self.fabric.model();
        let (kind, wire) = match b.kind {
            BurstKind::Put => (EventKind::Put, m.put_latency(t, b.len)),
            BurstKind::Amo => (EventKind::Amo, m.amo_latency(t) + (b.ops - 1) as f64 * m.gap(t)),
        };
        let t_complete = self.clock.now() + wire + b.extra_ns;
        self.pending.note(target, t_complete);
        let c = self.block();
        c.batch_flushes.fetch_add(1, Ordering::Relaxed);
        if how == EventKind::BatchSplit {
            c.batch_splits.fetch_add(1, Ordering::Relaxed);
        }
        // One RMA span for the whole burst (bytes = combined payload) plus
        // the batch_* span covering its issue window. The burst carries its
        // first member's flow — one wire message, one flow.
        let bytes = b.len as u64;
        self.trace(kind, Flavor::Implicit, target, target, bytes, b.flow, b.t_open, t_complete);
        self.trace_sync(how, target, b.t_open);
    }

    /// Disposition of a batched implicit op (its data has moved, eagerly):
    /// the completion horizon is accounted, and the span traced, when the
    /// burst retires. Faults are still drawn per op; the caller counts.
    #[inline(always)] // one call (`enqueue`) per batched op, not two
    fn batched(&self, op: Op, kind: BurstKind, key: SegKey, off: usize, len: usize) {
        let lat = op.latency(self.fabric.model(), self.transport_to(key.rank), len);
        let extra = self.apply_faults(key.rank, lat, true);
        self.enqueue(key, kind, off, len, extra);
    }

    // ----------------------------------------------------------------- put

    fn put_raw(
        &self,
        key: SegKey,
        off: usize,
        src: &[u8],
        flavor: Flavor,
    ) -> Result<f64, FabricError> {
        let seg = self.begin(key, off, src.len(), Op::Put, "put")?;
        let p = self.price(Op::Put, key.rank, src.len(), Some(flavor), None);
        seg.write(off, src);
        self.finish(Op::Put, flavor, key.rank, src.len() as u64, (p.t_start, p.t_complete));
        Ok(p.t_complete)
    }

    /// Blocking put: returns when remotely complete.
    pub fn put(&self, key: SegKey, off: usize, src: &[u8]) -> Result<(), FabricError> {
        let t = self.put_raw(key, off, src, Flavor::Blocking)?;
        self.clock.join(t);
        Ok(())
    }

    /// Explicit-nonblocking put. Under an armed fault plan the issue may
    /// be rejected with [`FabricError::Backpressure`]; nothing was issued
    /// and the caller may retry after the hinted delay.
    pub fn put_nb(&self, key: SegKey, off: usize, src: &[u8]) -> Result<NbHandle, FabricError> {
        self.check_reject(key.rank)?;
        let t = self.put_raw(key, off, src, Flavor::Nonblocking)?;
        Ok(NbHandle { t_complete: t })
    }

    /// Implicit-nonblocking put, completed by [`Endpoint::gsync`]. With
    /// batching enabled, small puts (below the protocol-change size)
    /// write-combine into the target's open burst; large puts always take
    /// the rendezvous-style unbatched path.
    pub fn put_implicit(&self, key: SegKey, off: usize, src: &[u8]) -> Result<(), FabricError> {
        if self.batch.get() && src.len() < self.fabric.model().dmapp_proto_change_bytes {
            self.begin(key, off, src.len(), Op::Put, "put")?.write(off, src);
            self.count(Op::Put, Some(src.len() as u64));
            self.block().batched_ops.fetch_add(1, Ordering::Relaxed);
            self.batched(Op::Put, BurstKind::Put, key, off, src.len());
            return Ok(());
        }
        let t = self.put_raw(key, off, src, Flavor::Implicit)?;
        self.pending.note(key.rank, t);
        Ok(())
    }

    // ----------------------------------------------------------------- get

    fn get_raw(
        &self,
        key: SegKey,
        off: usize,
        dst: &mut [u8],
        flavor: Flavor,
    ) -> Result<f64, FabricError> {
        let seg = self.begin(key, off, dst.len(), Op::Get, "get")?;
        let p = self.price(Op::Get, key.rank, dst.len(), Some(flavor), None);
        seg.read(off, dst);
        self.finish(Op::Get, flavor, key.rank, dst.len() as u64, (p.t_start, p.t_complete));
        Ok(p.t_complete)
    }

    /// Blocking get.
    pub fn get(&self, key: SegKey, off: usize, dst: &mut [u8]) -> Result<(), FabricError> {
        let t = self.get_raw(key, off, dst, Flavor::Blocking)?;
        self.clock.join(t);
        Ok(())
    }

    /// Explicit-nonblocking get. The destination holds valid data once
    /// [`Endpoint::wait`] returns. Like [`Endpoint::put_nb`], the issue
    /// may be rejected with [`FabricError::Backpressure`] under faults.
    pub fn get_nb(&self, key: SegKey, off: usize, dst: &mut [u8]) -> Result<NbHandle, FabricError> {
        self.check_reject(key.rank)?;
        let t = self.get_raw(key, off, dst, Flavor::Nonblocking)?;
        Ok(NbHandle { t_complete: t })
    }

    /// Implicit-nonblocking get, completed by [`Endpoint::gsync`].
    pub fn get_implicit(&self, key: SegKey, off: usize, dst: &mut [u8]) -> Result<(), FabricError> {
        let t = self.get_raw(key, off, dst, Flavor::Implicit)?;
        self.pending.note(key.rank, t);
        Ok(())
    }

    // ----------------------------------------------------------------- amo

    /// Blocking 8-byte AMO at aligned offset `off`; returns the old value.
    pub fn amo(
        &self,
        key: SegKey,
        off: usize,
        op: AmoOp,
        operand: u64,
        compare: u64,
    ) -> Result<u64, FabricError> {
        let class = Op::Amo(op, true);
        let seg = self.begin(key, off, 8, class, "amo")?;
        let p = self.price(class, key.rank, 8, Some(Flavor::Blocking), None);
        let old = seg.amo(off, op, operand, compare);
        // Not `join(t_complete)`: `now + (lat + extra)` and `now + lat +
        // extra` are the same bits only while `extra` is 0 (no faults).
        self.clock.advance(p.wire);
        self.finish(class, Flavor::Blocking, key.rank, 8, (p.t_start, self.clock.now()));
        Ok(old)
    }

    /// Blocking fetching AMOs to one target, pipelined as one list: element
    /// `i` applies its op to the word at `off + at` and hands that word's
    /// old value to `out(i, old)`. The hardware path of a multi-element
    /// get_accumulate (§2.4, consecutive words) and of a versioned read
    /// (`[version, payload…, version]`).
    ///
    /// The span `[off, off + len)` is translated, checked (aligned, wholly in
    /// bounds) and counted **once**, and every element is checked against it
    /// (aligned, inside) before the first is applied: a refused list moves
    /// nothing. Each element is still its own wire operation, priced,
    /// fault-drawn, announced to the model checker and traced as
    /// [`Endpoint::amo`] does one, and they take effect in list order (the
    /// in-order assumption, DESIGN.md "The data path"); but they pipeline at
    /// the injection rate and the origin waits once, for the last of them
    /// (and, under faults, for an earlier one that retires later still).
    /// One element costs what [`Endpoint::amo`] costs.
    pub fn amo_fetch_list(
        &self,
        key: SegKey,
        off: usize,
        len: usize,
        list: impl Iterator<Item = FetchAmo> + Clone,
        mut out: impl FnMut(usize, u64),
    ) -> Result<(), FabricError> {
        let seg = self.locate(key, off, len, Op::Amo(AmoOp::Fetch, true))?;
        let mut n = 0u64;
        for e in list.clone() {
            let at = off.saturating_add(e.at);
            if e.at.checked_add(8).is_none_or(|end| end > len) {
                return Err(FabricError::OutsideSpan { key, offset: at, lo: off, hi: off + len });
            }
            Self::word_aligned(key, at)?;
            n += 1;
        }
        // Completion of the elements before the last, then the last's own.
        let (mut earlier, mut done, mut wire) = (0.0f64, 0.0f64, 0.0f64);
        for (i, e) in list.enumerate() {
            let (class, at) = (Op::Amo(e.op, true), off + e.at);
            self.announce(key, at, 8, class, "amo");
            earlier = earlier.max(done);
            let p = self.price(class, key.rank, 8, Some(Flavor::Blocking), None);
            (done, wire) = (p.t_complete, p.wire);
            out(i, seg.amo(at, e.op, e.operand, e.compare));
            let (flow, t) = (self.cur_flow.get(), key.rank);
            self.trace(class.kind(), Flavor::Blocking, t, t, 8, flow, p.t_start, p.t_complete);
        }
        // `advance(wire)`, not `join(done)`: see `amo`.
        self.clock.advance(wire);
        self.clock.join(earlier);
        self.fabric.counters().sync.amos.fetch_add(n, Ordering::Relaxed);
        Ok(())
    }

    /// Implicit-nonblocking AMO (result discarded), completed by gsync —
    /// DMAPP's non-fetching AMO flavour. With batching enabled, adjacent
    /// AMOs to the same target coalesce into one injection chain.
    pub fn amo_implicit(
        &self,
        key: SegKey,
        off: usize,
        op: AmoOp,
        operand: u64,
    ) -> Result<(), FabricError> {
        self.amo_implicit_span(key, off, op, std::iter::once(operand))
    }

    /// Implicit-nonblocking AMOs (results discarded) on consecutive words:
    /// the `i`-th operand is applied at `off + 8 * i` — the hardware path of
    /// an accumulate, one DMAPP AMO per 8-byte element (§2.4, Fig. 6a).
    ///
    /// The span is translated, checked (aligned, wholly in bounds — or
    /// nothing is applied), counted and noted on the completion horizon
    /// **once**. Each element is still its own wire operation: priced,
    /// fault-drawn, announced to the model checker and traced on
    /// its own, in the order that many [`Endpoint::amo_implicit`] calls
    /// take them, so virtual time and every armed plane read the same to
    /// the bit; with batching on each element is enqueued on the burst.
    pub fn amo_implicit_span(
        &self,
        key: SegKey,
        off: usize,
        op: AmoOp,
        operands: impl ExactSizeIterator<Item = u64>,
    ) -> Result<(), FabricError> {
        let class = Op::Amo(op, false);
        let n = operands.len();
        let seg = self.locate(key, off, n.saturating_mul(8), class)?;
        let batch = self.batch.get();
        // The latest completion of the span: what `n` notes would leave.
        let mut horizon = 0.0f64;
        for (i, operand) in operands.enumerate() {
            let at = off + 8 * i;
            self.announce(key, at, 8, class, "amo");
            // The memory effect is eager on both paths.
            seg.amo(at, op, operand, 0);
            if batch {
                self.batched(class, BurstKind::Amo, key, at, 8);
            } else {
                let p = self.price(class, key.rank, 8, Some(Flavor::Implicit), None);
                horizon = horizon.max(p.t_complete);
                let (flow, t) = (self.cur_flow.get(), key.rank);
                self.trace(class.kind(), Flavor::Implicit, t, t, 8, flow, p.t_start, p.t_complete);
            }
        }
        self.pending.note(key.rank, horizon);
        self.fabric.counters().sync.amos.fetch_add(n as u64, Ordering::Relaxed);
        if batch {
            self.block().batched_ops.fetch_add(n as u64, Ordering::Relaxed);
        }
        Ok(())
    }

    // ----------------------------------------------- stamped sync variables
    //
    // Counted, but not traced: the sync layer's spans
    // cover them. Each announces the full 16-byte cell (the stamp word is
    // part of it), so sync AMOs conflict with `read_sync`/`write_sync`.

    /// AMO on a 16-byte sync variable (`[value][stamp]`): raises the stamp
    /// to this op's completion time and performs the AMO on the value word,
    /// so a peer observing the new value inherits our causal time. Returns
    /// the old value.
    ///
    /// Exempt from fault draws: this is the fetching acquire/poll
    /// primitive behind CAS retry loops, whose call count depends on the
    /// schedule (see `price`).
    pub fn amo_sync(
        &self,
        key: SegKey,
        off: usize,
        op: AmoOp,
        operand: u64,
        compare: u64,
    ) -> Result<u64, FabricError> {
        let class = Op::Amo(op, true);
        let seg = self.begin(key, off, 16, class, "amo_sync")?;
        let p = self.price(class, key.rank, 8, None, None);
        let old = Self::publish(&seg, off, p.t_complete, || seg.amo(off, op, operand, compare));
        self.clock.join(p.t_complete);
        self.count(class, None);
        Ok(old)
    }

    /// Fire-and-forget AMO on a sync variable: like [`Endpoint::amo_sync`]
    /// but non-fetching — the origin pays only the injection overhead and
    /// the AMO completes in the background (tracked for gsync/flush). This
    /// is DMAPP's non-fetching AMO, the primitive behind the paper's cheap
    /// release operations (Punlock = 0.4 µs) and completion notifications
    /// (Pcomplete = 350 ns · k).
    pub fn amo_sync_release(
        &self,
        key: SegKey,
        off: usize,
        op: AmoOp,
        operand: u64,
    ) -> Result<(), FabricError> {
        self.release(key, off, op, operand, "amo_release", None, NO_FLOW)
    }

    /// Like [`Endpoint::amo_sync_release`], but the notification is
    /// *ordered after* all implicit operations already issued to the same
    /// target (NIC fencing): the published stamp is the max of the AMO's
    /// own completion and the target's pending-operation horizon. The
    /// origin still pays only the injection overhead. This is the
    /// primitive behind notified access (put + notification in one call).
    ///
    /// Fault injection may delay this release's own completion, but the
    /// `max` with the pending horizon (which already includes any delays
    /// injected on the fenced data, and previous ordered releases) keeps
    /// the DMAPP ordered class intact by construction.
    pub fn amo_sync_release_ordered(
        &self,
        key: SegKey,
        off: usize,
        op: AmoOp,
        operand: u64,
    ) -> Result<(), FabricError> {
        // Ordered-class fencing covers the target's open burst too: retire
        // it so its horizon is part of what the release orders behind.
        self.drain_target(key.rank);
        let behind = Some(self.pending.horizon(key.rank));
        // Hand the in-scope flow to the signalled rank: a waiter that
        // observes this release picks it up via `take_signal_flow`, joining
        // the consumer's trace span to this producer's flow arrow.
        self.release(key, off, op, operand, "amo_release_ord", behind, self.cur_flow.get())
    }

    /// The non-fetching stamped AMO both releases are, complete no
    /// earlier than `floor` if one is given. A `flow` other than
    /// [`NO_FLOW`] is published to the target's signal-flow mailbox once
    /// the span is accepted and before the AMO, so a waiter that sees the
    /// signal finds its flow already there; a refused release publishes
    /// nothing.
    #[allow(clippy::too_many_arguments)]
    fn release(
        &self,
        key: SegKey,
        off: usize,
        op: AmoOp,
        operand: u64,
        label: &'static str,
        floor: Option<f64>,
        flow: u64,
    ) -> Result<(), FabricError> {
        let class = Op::Amo(op, false);
        let seg = self.begin(key, off, 16, class, label)?;
        if flow != NO_FLOW {
            self.fabric.telemetry().publish_signal_flow(key.rank, flow);
        }
        let p = self.price(class, key.rank, 8, Some(Flavor::Implicit), floor);
        Self::publish(&seg, off, p.t_complete, || seg.amo(off, op, operand, 0));
        self.pending.note(key.rank, p.t_complete);
        self.count(class, None);
        Ok(())
    }

    /// Read a 16-byte sync variable; joins the clock with `stamp +
    /// latency` so waiting loops accrue honest time. Returns the value. A
    /// local read is free and uncounted; no read draws faults (it polls).
    /// Like an AMO, refused ([`FabricError::Misaligned`]) off a word
    /// boundary.
    pub fn read_sync(&self, key: SegKey, off: usize) -> Result<u64, FabricError> {
        Self::word_aligned(key, off)?;
        let seg = self.begin(key, off, 16, Op::Get, "read_sync")?;
        let lat = if key.rank == self.rank {
            0.0
        } else {
            self.count(Op::Get, None);
            self.price(Op::Get, key.rank, 8, None, None).wire
        };
        let v = seg.word(off).load(Ordering::Acquire);
        let s = bits_to_stamp(seg.word(off + 8).load(Ordering::Acquire));
        // Both joins: the writer's time as seen from here, then the read's
        // own round trip on top of wherever that left the clock.
        self.clock.join(s + lat);
        self.clock.join(self.clock.now() + lat);
        Ok(v)
    }

    /// Write a 16-byte sync variable (value + stamp = our completion time).
    /// Refused ([`FabricError::Misaligned`]) off a word boundary.
    pub fn write_sync(&self, key: SegKey, off: usize, value: u64) -> Result<(), FabricError> {
        Self::word_aligned(key, off)?;
        let seg = self.begin(key, off, 16, Op::Put, "write_sync")?;
        let p = self.price(Op::Put, key.rank, 8, Some(Flavor::Implicit), None);
        Self::publish(&seg, off, p.t_complete, || seg.word(off).store(value, Ordering::Release));
        self.pending.note(key.rank, p.t_complete);
        self.count(Op::Put, None);
        Ok(())
    }

    // ------------------------------------------------------ notified access

    /// Issue an ordered completion notification toward `target`: a record
    /// `(tag, source=this rank, bytes)` appended to the target rank's
    /// notification ring ([`crate::notify`]) once everything already
    /// issued to that target — including the open injection burst, which
    /// is drained first so the notification orders after the burst's
    /// completion — has retired. The notification itself rides a
    /// non-fetching AMO (same cost shape as
    /// [`Endpoint::amo_sync_release_ordered`]): the origin pays one
    /// injection overhead and the record's stamp is
    /// `max(own completion, pending horizon toward target)`, keeping the
    /// DMAPP ordered class intact under fault-injected delays.
    ///
    /// A full ring is modelled as injection-queue backpressure: the origin
    /// charges one stall (the armed [`crate::FaultPlan`]'s `bp_ns`, or
    /// [`Endpoint::NOTIFY_BP_NS`] when no plan is armed), then retries a
    /// bounded number of times while the consumer drains; if the ring
    /// never drains the append surfaces [`FabricError::Backpressure`].
    /// Fault draws happen once per append, never inside the retry loop,
    /// preserving the per-seed determinism contract of [`crate::faults`].
    pub fn notify_append(&self, target: u32, tag: u32, bytes: u64) -> Result<(), FabricError> {
        // Ordered-class fencing: the notification trails the open burst.
        self.drain_target(target);
        let behind = Some(self.pending.horizon(target));
        let p = self.price(Op::Notify, target, 8, Some(Flavor::Implicit), behind);
        let mut t_complete = p.t_complete;
        let q = self.fabric.notify().queue(target);
        let flow = self.cur_flow.get();
        let mut rec = NotifyRecord { tag, source: self.rank, bytes, stamp: t_complete, flow };
        self.mc_ring(target, AccessKind::Put, "notify-push");
        if !q.try_push(rec) {
            if self.mc_armed() {
                // Under the model checker a full ring is a legal blocking
                // point, not backpressure to fault-charge: park until the
                // consumer drains, re-announcing the push each round so the
                // gate keeps scheduling authority over the retry.
                loop {
                    let fab = self.fabric.clone();
                    self.mc_poll(McObj::Ring(target), "notify-space", move || {
                        let q = fab.notify().queue(target);
                        q.len() < q.capacity()
                    });
                    self.mc_ring(target, AccessKind::Put, "notify-push");
                    if q.try_push(rec) {
                        break;
                    }
                }
            } else {
                // Overflow → backpressure. Charge the stall once (no extra RNG
                // draws: the magnitude comes straight from the armed plan), then
                // retry while the consumer drains.
                self.block().notify_overflows.fetch_add(1, Ordering::Relaxed);
                let plan = self.fabric.faults().plan();
                let stall = if plan.bp_ns > 0.0 { plan.bp_ns } else { Self::NOTIFY_BP_NS };
                let t0 = self.clock.now();
                self.clock.advance(stall);
                self.trace_span(EventKind::FaultBackpressure, target, t0, self.clock.now());
                // The stalled append re-issues after the stall.
                let lat = self.fabric.model().amo_latency(self.transport_to(target));
                t_complete = (self.clock.now() + lat).max(t_complete);
                rec.stamp = t_complete;
                let mut pushed = false;
                for _ in 0..Self::NOTIFY_RETRY_LIMIT {
                    if q.try_push(rec) {
                        pushed = true;
                        break;
                    }
                    std::thread::yield_now();
                }
                if !pushed {
                    // The retry budget is exhausted — the peer never drained.
                    // This is the fatal-backpressure path: dump the flight
                    // recorder so the last window of events survives the abort
                    // most callers turn this error into.
                    self.flight_dump("notify ring backpressure retry budget exhausted");
                    return Err(FabricError::Backpressure { retry_after_ns: stall as u64 });
                }
            }
        }
        self.pending.note(target, t_complete);
        self.finish(Op::Notify, Flavor::Implicit, target, bytes, (p.t_start, t_complete));
        Ok(())
    }

    /// Issue stall charged per overflowed [`Endpoint::notify_append`] when
    /// no fault plan is armed (an armed plan's `bp_ns` takes precedence).
    pub const NOTIFY_BP_NS: f64 = 2_000.0;

    /// Bounded retry attempts after an overflowed append before the
    /// backpressure error surfaces to the caller.
    pub const NOTIFY_RETRY_LIMIT: u32 = 100_000;

    /// A data op and its ordered notification `(tag, bytes)` in one causal
    /// flow: the consumer's matching wait joins this flow in the trace.
    fn notified(
        &self,
        target: u32,
        tag: u32,
        bytes: u64,
        data: impl FnOnce() -> Result<(), FabricError>,
    ) -> Result<(), FabricError> {
        let prev = self.flow_open();
        let r = data().and_then(|()| self.notify_append(target, tag, bytes));
        self.flow_close(prev);
        r
    }

    /// Notified put: the data moves like [`Endpoint::put_implicit`] (so it
    /// composes with issue-side batching), then an ordered notification
    /// carrying `(tag, bytes)` is appended to the target rank's ring. A
    /// consumer that matches the notification observes the data: the
    /// record's stamp trails the data's completion horizon.
    pub fn put_notified(
        &self,
        key: SegKey,
        off: usize,
        src: &[u8],
        tag: u32,
    ) -> Result<(), FabricError> {
        self.notified(key.rank, tag, src.len() as u64, || self.put_implicit(key, off, src))
    }

    /// Notified get: fetch like [`Endpoint::get_implicit`], then notify the
    /// *target* (the data's owner) that the read has retired — the
    /// buffer-reuse signal of notified access (the owner may overwrite once
    /// it matches the notification).
    pub fn get_notified(
        &self,
        key: SegKey,
        off: usize,
        dst: &mut [u8],
        tag: u32,
    ) -> Result<(), FabricError> {
        self.notified(key.rank, tag, dst.len() as u64, || self.get_implicit(key, off, dst))
    }

    /// Notified non-fetching AMO: apply like [`Endpoint::amo_implicit`],
    /// then notify the target.
    pub fn amo_notified(
        &self,
        key: SegKey,
        off: usize,
        op: AmoOp,
        operand: u64,
        tag: u32,
    ) -> Result<(), FabricError> {
        self.notified(key.rank, tag, 8, || self.amo_implicit(key, off, op, operand))
    }

    /// Pop the oldest notification destined for this rank, if any. Local
    /// polling is free in virtual time (the ring lives on this rank, like
    /// `read_sync` on a local segment); a popped record joins the clock
    /// with its stamp, so consuming a notification implies the notified
    /// operation's data is visible. Matching (tag/source wildcards,
    /// out-of-order stashing) lives in the window layer.
    pub fn notify_pop(&self) -> Option<NotifyRecord> {
        let rec = self.notify_poll()?;
        self.notify_join(&rec);
        Some(rec)
    }

    /// Pop without joining the clock. The window-layer matcher stashes
    /// records that don't match the current wait; only the *matched*
    /// record's stamp may touch the consumer's clock, otherwise the clock
    /// would depend on how many unrelated records happened to be queued
    /// ahead of the match — a real-schedule artefact the virtual-time
    /// model must not observe. Callers pair this with
    /// [`Endpoint::notify_join`] on the record they actually consume.
    pub fn notify_poll(&self) -> Option<NotifyRecord> {
        // Announce even when the ring turns out to be empty: observing
        // emptiness is itself order-sensitive (it decides a retry).
        self.mc_ring(self.rank, AccessKind::Get, "notify-poll");
        let rec = self.fabric.notify().queue(self.rank).try_pop()?;
        self.block().notify_consumed.fetch_add(1, Ordering::Relaxed);
        Some(rec)
    }

    /// Join the clock with a matched record's stamp — the consume-side
    /// half of [`Endpoint::notify_poll`]: after the join, everything the
    /// notified operation wrote is visible at this rank's virtual time.
    pub fn notify_join(&self, rec: &NotifyRecord) {
        self.clock.join(rec.stamp);
    }

    /// Records currently queued for this rank (approximate under
    /// concurrent producers).
    pub fn notify_backlog(&self) -> usize {
        self.fabric.notify().queue(self.rank).len()
    }

    /// Discard every notification still queued for this rank (window
    /// free): each dropped record is counted and traced. Returns how many
    /// were dropped.
    pub fn notify_drop_all(&self) -> u64 {
        self.mc_ring(self.rank, AccessKind::Put, "notify-drain");
        let q = self.fabric.notify().queue(self.rank);
        let mut n = 0u64;
        while let Some(rec) = q.try_pop() {
            n += 1;
            // The drop carries the record's flow so an unconsumed
            // notification still terminates its arrow (visibly as a drop).
            let (t0, from) = (self.clock.now(), rec.source);
            self.trace(
                EventKind::NotifyDrop,
                Flavor::NotApplicable,
                from,
                from,
                rec.bytes,
                rec.flow,
                t0,
                t0,
            );
        }
        if n > 0 {
            self.count_dropped(n);
        }
        n
    }

    // ---------------------------------------------------------- completion

    /// Wait for one explicit-nonblocking operation.
    pub fn wait(&self, h: NbHandle) {
        self.clock.join(h.t_complete);
    }

    /// Bulk-complete all implicit-nonblocking operations (DMAPP `gsync`).
    /// Under an armed fault plan the drain itself may retire late (the
    /// NIC's completion queue lags): the extra delay is charged after the
    /// pending horizon is joined.
    pub fn gsync(&self) {
        let t_start = self.clock.now();
        self.drain_all();
        self.clock.join(self.pending.global());
        let extra = self.apply_faults(NO_TARGET, 0.0, true);
        if extra > 0.0 {
            self.clock.advance(extra);
        }
        self.fabric.counters().sync.gsyncs.fetch_add(1, Ordering::Relaxed);
        self.trace_sync(EventKind::Gsync, NO_TARGET, t_start);
    }

    /// The completion horizon of implicit operations already issued to
    /// `target` (what a flush would wait for) — used by request-based
    /// wrappers to build completion handles. Retires the target's open
    /// burst first so the horizon covers it. Conservative under striping:
    /// may include a stripe-mate's later completion.
    pub fn pending_for(&self, target: u32) -> f64 {
        self.drain_target(target);
        self.pending.horizon(target)
    }

    /// Complete all implicit operations targeted at `target` (per-target
    /// remote completion, the substrate of `MPI_Win_flush(target)`).
    /// Retires the target's open burst, then joins its striped horizon.
    pub fn flush_target(&self, target: u32) {
        let t_start = self.clock.now();
        self.drain_target(target);
        self.clock.join(self.pending.horizon(target));
        self.fabric.counters().sync.flushes.fetch_add(1, Ordering::Relaxed);
        self.trace_sync(EventKind::Flush, target, t_start);
    }

    /// Local memory fence (x86 `mfence` analogue, charged per the model).
    pub fn mfence(&self) {
        std::sync::atomic::fence(Ordering::SeqCst);
        self.clock.advance(self.fabric.model().mfence_ns);
    }

    // ------------------------------------------------------ flight recorder

    /// Dump this rank's flight-recorder window and an atomics-only metrics
    /// summary to stderr — the black-box readout for fatal paths (panics,
    /// racecheck aborts, exhausted backpressure retries). Reads only this
    /// rank's own ring (single-writer, so its own events are coherent
    /// mid-run) plus atomic counters; safe to call while other ranks are
    /// still running. No-op unless the flight recorder is armed.
    #[cold]
    pub fn flight_dump(&self, why: &str) {
        let tel = self.fabric.telemetry();
        if !tel.flight_enabled() {
            return;
        }
        let evs = tel.flight_events(self.rank);
        let mut out = format!(
            "== fompi-scope flight recorder: rank {} ({}): last {} events ==\n",
            self.rank,
            why,
            evs.len()
        );
        for ev in &evs {
            out.push_str(&format!(
                "  [{:>14.1}..{:>14.1}] {:<12} -> {:>3} bytes={} win={} flow={:#x}\n",
                ev.t_start,
                ev.t_end,
                ev.kind.name(),
                if ev.target == NO_TARGET { -1i64 } else { ev.target as i64 },
                ev.bytes,
                ev.win,
                ev.flow,
            ));
        }
        out.push_str(&crate::metrics::panic_summary(&self.fabric));
        eprint!("{out}");
    }

    // ------------------------------------------------------- model checking
    //
    // Announce points for the interleaving model checker ([`crate::mc`]).
    // Announcements cover every shared-state touch the endpoint performs:
    // segment data movement (in `begin`), stamped sync variables, and
    // notification-ring traffic. Rank-local state (clock, open bursts,
    // striped horizons, counters) is never announced: other ranks cannot
    // observe it, so reordering it cannot change any rank-visible value.

    /// Is a model-checker gate armed on the fabric?
    #[inline]
    pub fn mc_armed(&self) -> bool {
        self.hooks.has(Hooks::MC)
    }

    /// Announce a touch of `rank`'s notification ring — one conflict
    /// object, whatever the touch (see [`crate::mc`]).
    #[inline]
    fn mc_ring(&self, rank: u32, kind: AccessKind, label: &'static str) {
        if self.mc_armed() {
            self.mc_announce(McOp {
                obj: McObj::Ring(rank),
                lo: 0,
                hi: 0,
                kind,
                fetch: false,
                label,
            });
        }
    }

    /// Announce one operation and park until the gate schedules this rank;
    /// the caller must then perform exactly the announced operation.
    #[cold]
    #[inline(never)]
    fn mc_announce(&self, op: McOp) {
        if let Some(g) = self.fabric.mc_gate() {
            g.op(self.rank, op);
        }
    }

    /// Gate-mediated blocking wait: park until `pred` holds *and* the
    /// gate schedules this rank. Returns `false` when no gate is armed —
    /// the caller falls back to its normal spin/yield loop. A wake is a
    /// read of `obj` in the conflict relation.
    pub fn mc_poll<F>(&self, obj: McObj, label: &'static str, pred: F) -> bool
    where
        F: Fn() -> bool + Send + Sync + 'static,
    {
        let Some(gate) = self.fabric.mc_gate() else {
            return false;
        };
        gate.poll(self.rank, obj, label, Box::new(pred));
        true
    }

    /// Park until this rank's own notification ring is non-empty — the
    /// gate-mediated form of every "spin until a notification arrives"
    /// loop. Returns `false` when no gate is armed.
    pub fn mc_poll_my_ring(&self, label: &'static str) -> bool {
        if !self.mc_armed() {
            return false;
        }
        let fab = self.fabric.clone();
        let rank = self.rank;
        self.mc_poll(McObj::Ring(rank), label, move || !fab.notify().queue(rank).is_empty())
    }

    /// Park until the 8-byte sync word at `key`+`off` satisfies `pred` —
    /// the gate-mediated form of a CAS-retry loop on a remote lock word.
    /// A failed sync CAS means another origin holds the word, so
    /// re-arming the attempt is only useful once the word changes; under
    /// the checker each free retry would be an always-enabled step and
    /// exploration of the spin would never terminate. Returns `false`
    /// when no gate is armed — the caller falls back to its backoff spin.
    pub fn mc_poll_word(
        &self,
        key: SegKey,
        off: usize,
        label: &'static str,
        pred: impl Fn(u64) -> bool + Send + Sync + 'static,
    ) -> bool {
        if !self.mc_armed() {
            return false;
        }
        // The predicate outlives this call, so it owns the segment: a cold
        // registry lookup, not a borrow from the translation cache.
        let Some(seg) = self.fabric.resolve(key).ok().filter(|seg| seg.check(off, 8)) else {
            return false;
        };
        self.mc_poll(McObj::Seg { owner: key.rank, id: key.id }, label, move || {
            pred(seg.word(off).load(Ordering::Acquire))
        })
    }

    /// Enter a job-wide collective through the gate; `Some(is_leader)`
    /// when armed, `None` otherwise (caller runs its real barrier).
    pub fn mc_collective(&self, label: &'static str) -> Option<bool> {
        self.fabric.mc_gate().map(|g| g.collective(self.rank, label))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CostModel;
    use crate::segment::Segment;
    use crate::{Config, CounterSnapshot};

    /// A two-rank, two-node fabric configured by `config` alone (the
    /// environment is not consulted).
    fn fabric_with(config: Config) -> Arc<Fabric> {
        Fabric::with_config(2, 1, CostModel::default(), config)
    }

    fn setup() -> (Arc<Fabric>, Endpoint, Endpoint, SegKey) {
        // Ranks 0 and 1 on different nodes → DMAPP path.
        let f = Fabric::new(2, 1, CostModel::default());
        let ep0 = Endpoint::new(f.clone(), 0);
        let ep1 = Endpoint::new(f.clone(), 1);
        let seg = Segment::new(4096);
        let key = f.register(1, seg);
        (f, ep0, ep1, key)
    }

    #[test]
    fn blocking_put_costs_model_latency() {
        let (f, ep0, _ep1, key) = setup();
        let m = f.model().clone();
        ep0.put(key, 0, &[1u8; 8]).unwrap();
        let expect = m.inject(Transport::Dmapp) + m.put_latency(Transport::Dmapp, 8);
        assert!((ep0.clock().now() - expect).abs() < 1e-9);
        let mut out = [0u8; 8];
        ep0.get(key, 0, &mut out).unwrap();
        assert_eq!(out, [1u8; 8]);
    }

    #[test]
    fn implicit_ops_cost_only_injection_until_gsync() {
        let (f, ep0, _ep1, key) = setup();
        let m = f.model().clone();
        for i in 0..10 {
            ep0.put_implicit(key, i * 8, &[i as u8; 8]).unwrap();
        }
        let inject_only = 10.0 * m.inject(Transport::Dmapp);
        assert!((ep0.clock().now() - inject_only).abs() < 1e-9);
        ep0.gsync();
        // After gsync we must have paid at least one full latency.
        assert!(ep0.clock().now() >= inject_only + m.put_latency(Transport::Dmapp, 8));
    }

    #[test]
    fn nb_handle_waits() {
        let (_f, ep0, _ep1, key) = setup();
        let h = ep0.put_nb(key, 0, &[9u8; 16]).unwrap();
        let before = ep0.clock().now();
        assert!(h.t_complete > before);
        ep0.wait(h);
        assert_eq!(ep0.clock().now(), h.t_complete);
    }

    #[test]
    fn amo_roundtrip_and_cost() {
        let (f, ep0, _ep1, key) = setup();
        let old = ep0.amo(key, 0, AmoOp::Add, 42, 0).unwrap();
        assert_eq!(old, 0);
        let old = ep0.amo(key, 0, AmoOp::Add, 1, 0).unwrap();
        assert_eq!(old, 42);
        let m = f.model();
        let per = m.inject(Transport::Dmapp) + m.amo_latency(Transport::Dmapp);
        assert!((ep0.clock().now() - 2.0 * per).abs() < 1e-9);
    }

    #[test]
    fn sync_var_carries_time() {
        let (_f, ep0, ep1, key) = setup();
        // Rank 0 does expensive work then signals.
        ep0.charge(1_000_000.0);
        ep0.amo_sync(key, 0, AmoOp::Add, 1, 0).unwrap();
        // Rank 1 reads the flag; its clock must jump past rank 0's signal.
        let v = ep1.read_sync(key, 0).unwrap();
        assert_eq!(v, 1);
        assert!(ep1.clock().now() > 1_000_000.0);
    }

    /// The stamp-before-value invariant, on two threads: whoever reads the
    /// `k`-th value has joined the `k`-th write's time. Under the free cost
    /// model the `k`-th write completes at exactly `k` µs, so a reader that
    /// saw a value ahead of its stamp is a reader whose clock is short.
    #[test]
    fn a_reader_of_the_kth_value_has_joined_the_kth_stamp() {
        const WRITES: u64 = 300_000;
        let f = Fabric::with_config(2, 1, CostModel::free(), Config::default());
        let key = f.register(1, Segment::new(16));
        let late = std::thread::scope(|s| {
            let reader = s.spawn(|| {
                let ep = Endpoint::new(f.clone(), 1);
                let mut late = 0u64;
                loop {
                    let v = ep.read_sync(key, 0).unwrap();
                    late += (ep.clock().now() < v as f64 * 1000.0) as u64;
                    if v == WRITES {
                        break late;
                    }
                }
            });
            let ep = Endpoint::new(f.clone(), 0);
            for k in 1..=WRITES {
                ep.charge(1000.0);
                // Every stamped writer in rotation; the cell reads `k` after
                // the `k`-th of them.
                match k % 3 {
                    0 => ep.amo_sync_release(key, 0, AmoOp::Add, 1).unwrap(),
                    1 => drop(ep.amo_sync(key, 0, AmoOp::Add, 1, 0).unwrap()),
                    _ => ep.write_sync(key, 0, k).unwrap(),
                }
            }
            reader.join().unwrap()
        });
        assert_eq!(late, 0, "reads that saw a value before the stamp that dates it");
    }

    #[test]
    fn out_of_bounds_rejected() {
        let (_f, ep0, _ep1, key) = setup();
        assert!(matches!(ep0.put(key, 4090, &[0u8; 16]), Err(FabricError::OutOfBounds { .. })));
    }

    #[test]
    fn per_target_flush() {
        let f = Fabric::new(3, 1, CostModel::default());
        let ep0 = Endpoint::new(f.clone(), 0);
        let k1 = f.register(1, Segment::new(64));
        let k2 = f.register(2, Segment::new(8192));
        ep0.put_implicit(k1, 0, &[1u8; 8]).unwrap();
        ep0.put_implicit(k2, 0, &[2u8; 4096]).unwrap();
        let t_before = ep0.clock().now();
        ep0.flush_target(1); // cheap target only
        let after_1 = ep0.clock().now();
        ep0.flush_target(2); // expensive 4 KiB put
        let after_2 = ep0.clock().now();
        assert!(after_1 >= t_before);
        assert!(after_2 > after_1);
    }

    #[test]
    fn ordered_release_trails_pending_data() {
        let (f, ep0, ep1, key) = setup();
        let m = f.model().clone();
        // A large implicit put followed by an ordered notification: the
        // notification stamp must not be visible before the data horizon.
        ep0.put_implicit(key, 16, &[7u8; 2048]).unwrap();
        let t_data = ep0.clock().now() + m.put_latency(Transport::Dmapp, 2048);
        ep0.amo_sync_release_ordered(key, 0, AmoOp::Add, 1).unwrap();
        // The reader joins the stamp: its clock lands at/after the data.
        let v = ep1.read_sync(key, 0).unwrap();
        assert_eq!(v, 1);
        assert!(
            ep1.clock().now() >= t_data,
            "notification visible before the data it orders: {} < {}",
            ep1.clock().now(),
            t_data
        );
        // The origin itself did not block.
        assert!(ep0.clock().now() < t_data);
    }

    #[test]
    fn faults_perturb_latency_deterministically() {
        use crate::faults::FaultPlan;
        let mk = || {
            let f = fabric_with(Config { faults: FaultPlan::heavy(77), ..Config::default() });
            let ep = Endpoint::new(f.clone(), 0);
            let key = f.register(1, Segment::new(4096));
            (f, ep, key)
        };
        let (fa, ea, ka) = mk();
        let (fb, eb, kb) = mk();
        for i in 0..50 {
            ea.put(ka, 0, &[i as u8; 64]).unwrap();
            eb.put(kb, 0, &[i as u8; 64]).unwrap();
            assert_eq!(ea.clock().now().to_bits(), eb.clock().now().to_bits());
        }
        assert!(fa.faults().total_injected() > 0, "heavy plan must inject");
        assert_eq!(fa.faults().total_injected(), fb.faults().total_injected());
        // Jitter must actually cost time relative to the clean model.
        let f0 = Fabric::new(2, 1, CostModel::default());
        let e0 = Endpoint::new(f0.clone(), 0);
        let k0 = f0.register(1, Segment::new(4096));
        for i in 0..50 {
            e0.put(k0, 0, &[i as u8; 64]).unwrap();
        }
        assert!(ea.clock().now() > e0.clock().now());
    }

    #[test]
    fn rejected_nb_issue_moves_no_data() {
        use crate::faults::FaultPlan;
        let plan = FaultPlan { bp_reject_prob: 1.0, ..FaultPlan::heavy(5) };
        let f = fabric_with(Config { faults: plan, ..Config::default() });
        let ep = Endpoint::new(f.clone(), 0);
        let key = f.register(1, Segment::new(64));
        match ep.put_nb(key, 0, &[9u8; 8]) {
            Err(FabricError::Backpressure { retry_after_ns }) => assert!(retry_after_ns > 0),
            other => panic!("expected backpressure, got {other:?}"),
        }
        // Nothing was issued: the target bytes are untouched.
        let mut buf = [1u8; 8];
        ep.get(key, 0, &mut buf).unwrap();
        assert_eq!(buf, [0u8; 8]);
    }

    #[test]
    fn ordered_release_stays_ordered_under_faults() {
        use crate::faults::FaultPlan;
        let f = fabric_with(Config { faults: FaultPlan::heavy(31), ..Config::default() });
        let ep0 = Endpoint::new(f.clone(), 0);
        let ep1 = Endpoint::new(f.clone(), 1);
        let key = f.register(1, Segment::new(4096));
        for round in 0..20u64 {
            ep0.put_implicit(key, 16, &[7u8; 2048]).unwrap();
            let horizon = ep0.pending_for(1);
            ep0.amo_sync_release_ordered(key, 0, AmoOp::Add, 1).unwrap();
            let v = ep1.read_sync(key, 0).unwrap();
            assert_eq!(v, round + 1);
            assert!(
                ep1.clock().now() >= horizon,
                "delayed release overtook its fenced data: {} < {horizon}",
                ep1.clock().now()
            );
        }
    }

    #[test]
    fn batching_amortizes_injection_and_improves_horizon() {
        let m = CostModel::default();
        let run = |batch: bool| {
            let f = Fabric::new(2, 1, CostModel::default());
            let ep = Endpoint::new(f.clone(), 0);
            ep.set_batching(batch);
            let key = f.register(1, Segment::new(4096));
            for i in 0..16 {
                ep.put_implicit(key, i * 8, &[i as u8 + 1; 8]).unwrap();
            }
            ep.gsync();
            (ep.clock().now(), f, ep, key)
        };
        let (batched, fb, epb, keyb) = run(true);
        let (unbatched, ..) = run(false);
        assert!(batched < unbatched, "batched {batched} >= unbatched {unbatched}");
        // 16 contiguous 8-byte puts: one burst — o + 15·g issue cost and a
        // single 128-byte wire message instead of 16 injections.
        let expect = m.inject(Transport::Dmapp)
            + 15.0 * m.gap(Transport::Dmapp)
            + m.put_latency(Transport::Dmapp, 128);
        assert!((batched - expect).abs() < 1e-9, "got {batched}, expect {expect}");
        let c = fb.counters().snapshot();
        assert_eq!((c.puts, c.batched_ops, c.batch_flushes, c.batch_splits), (16, 16, 1, 0));
        // The data all landed, in order.
        for i in 0..16u8 {
            let mut buf = [0u8; 8];
            epb.get(keyb, i as usize * 8, &mut buf).unwrap();
            assert_eq!(buf, [i + 1; 8]);
        }
    }

    #[test]
    fn burst_splits_exactly_at_proto_boundary() {
        let (f, ep0, _ep1, key) = setup();
        ep0.set_batching(true);
        // 8 × 512 B contiguous = 4096 B total: the member that would reach
        // the protocol-change size exactly must open a fresh burst instead
        // (bursts never enter the rendezvous protocol).
        for i in 0..8 {
            ep0.put_implicit(key, i * 512, &[i as u8 + 1; 512]).unwrap();
        }
        let c = f.counters().snapshot();
        assert_eq!((c.batch_flushes, c.batch_splits), (1, 1));
        assert_eq!(ep0.open_bursts(), 1, "the split's tail burst stays open");
        ep0.gsync();
        assert_eq!(ep0.open_bursts(), 0);
        assert_eq!(f.counters().snapshot().batch_flushes, 2);
        let mut buf = [0u8; 512];
        ep0.get(key, 7 * 512, &mut buf).unwrap();
        assert_eq!(buf, [8u8; 512]);
    }

    #[test]
    fn large_puts_bypass_batching() {
        let f = Fabric::new(2, 1, CostModel::default());
        let ep = Endpoint::new(f.clone(), 0);
        ep.set_batching(true);
        let key = f.register(1, Segment::new(8192));
        ep.put_implicit(key, 0, &[3u8; 4096]).unwrap();
        assert_eq!(ep.open_bursts(), 0, "protocol-change-sized put is not batched");
        assert_eq!(f.counters().snapshot().batched_ops, 0);
        assert!(ep.pending_for(1) > 0.0);
    }

    #[test]
    fn interleaved_put_amo_same_offset_stays_ordered() {
        let (f, ep0, ep1, key) = setup();
        ep0.set_batching(true);
        // Same 8-byte word, alternating kinds: memory effects apply
        // eagerly in program order, and every kind switch retires the
        // open burst, so nothing reorders within the ordered class.
        ep0.put_implicit(key, 0, &5u64.to_le_bytes()).unwrap();
        ep0.amo_implicit(key, 0, AmoOp::Add, 3).unwrap();
        ep0.put_implicit(key, 0, &10u64.to_le_bytes()).unwrap();
        ep0.amo_implicit(key, 0, AmoOp::Add, 1).unwrap();
        assert_eq!(f.counters().snapshot().batch_splits, 3);
        let horizon = ep0.pending_for(1); // drains the open AMO burst
        assert!(horizon > 0.0);
        ep0.amo_sync_release_ordered(key, 16, AmoOp::Add, 1).unwrap();
        let v = ep1.read_sync(key, 16).unwrap();
        assert_eq!(v, 1);
        assert!(
            ep1.clock().now() >= horizon,
            "ordered release overtook batched data: {} < {horizon}",
            ep1.clock().now()
        );
        let mut buf = [0u8; 8];
        ep0.get(key, 0, &mut buf).unwrap();
        assert_eq!(u64::from_le_bytes(buf), 11, "program order preserved");
    }

    #[test]
    fn flush_during_faults_drains_and_stays_deterministic() {
        use crate::faults::FaultPlan;
        let run = || {
            // Delay + backpressure heavy: the PR 2 plans the soak uses.
            let plan = FaultPlan { delay_prob: 0.5, bp_prob: 0.3, ..FaultPlan::heavy(123) };
            let f = fabric_with(Config { faults: plan, ..Config::default() });
            let ep = Endpoint::new(f.clone(), 0);
            ep.set_batching(true);
            let key = f.register(1, Segment::new(8192));
            for round in 0..10usize {
                for i in 0..8 {
                    ep.put_implicit(key, round * 64 + i * 8, &[i as u8; 8]).unwrap();
                }
                ep.flush_target(1);
                assert_eq!(ep.open_bursts(), 0, "flush must drain open bursts");
            }
            ep.gsync();
            (ep.clock().now(), f.faults().total_injected())
        };
        let (ta, ia) = run();
        let (tb, ib) = run();
        assert_eq!(ta.to_bits(), tb.to_bits(), "batched fault runs must be bit-deterministic");
        assert_eq!(ia, ib);
        assert!(ia > 0, "the armed plan must inject");
    }

    #[test]
    fn disabling_batching_drains_open_bursts() {
        let (f, ep0, _ep1, key) = setup();
        ep0.set_batching(true);
        ep0.put_implicit(key, 0, &[1u8; 8]).unwrap();
        assert_eq!(ep0.open_bursts(), 1);
        ep0.set_batching(false);
        assert_eq!(ep0.open_bursts(), 0);
        assert!(ep0.pending_for(1) > 0.0, "drained burst left its horizon behind");
        let _ = f;
    }

    #[test]
    fn notified_put_delivers_record_after_its_data() {
        let (f, ep0, ep1, key) = setup();
        let m = f.model().clone();
        ep0.put_notified(key, 64, &[9u8; 2048], 77).unwrap();
        let t_data = m.inject(Transport::Dmapp) + m.put_latency(Transport::Dmapp, 2048);
        let rec = ep1.notify_pop().expect("notification queued");
        assert_eq!((rec.tag, rec.source, rec.bytes), (77, 0, 2048));
        assert!(
            rec.stamp >= t_data,
            "notification stamp {} precedes its data horizon {t_data}",
            rec.stamp
        );
        // Consuming the notification pulls the consumer past the data.
        assert!(ep1.clock().now() >= t_data);
        let mut buf = [0u8; 2048];
        ep1.get(key, 64, &mut buf).unwrap();
        assert_eq!(buf, [9u8; 2048]);
        let c = f.counters().snapshot();
        assert_eq!((c.notify_posts, c.notify_consumed, c.notify_overflows), (1, 1, 0));
    }

    #[test]
    fn notified_op_drains_open_burst_first() {
        let (f, ep0, ep1, key) = setup();
        ep0.set_batching(true);
        // Contiguous small puts open a burst; the notified put joins it,
        // then the notification drains it so the record trails the whole
        // burst's completion.
        for i in 0..8 {
            ep0.put_implicit(key, i * 8, &[i as u8 + 1; 8]).unwrap();
        }
        assert_eq!(ep0.open_bursts(), 1);
        ep0.put_notified(key, 64, &[42u8; 8], 5).unwrap();
        assert_eq!(ep0.open_bursts(), 0, "notification must retire the burst");
        let horizon = ep0.pending_for(1);
        let rec = ep1.notify_pop().expect("notification queued");
        assert!(
            rec.stamp >= horizon || ep1.clock().now() >= horizon,
            "notification reordered ahead of its burst"
        );
        assert!(f.counters().snapshot().batch_flushes >= 1);
    }

    #[test]
    fn notify_overflow_accounts_backpressure_and_errors() {
        let f = fabric_with(Config { notify_depth: 2, ..Config::default() });
        let ep0 = Endpoint::new(f.clone(), 0);
        let _key = f.register(1, Segment::new(64));
        ep0.notify_append(1, 1, 8).unwrap();
        ep0.notify_append(1, 2, 8).unwrap();
        let before = ep0.clock().now();
        // Nobody consumes: the third append stalls, retries, then errors.
        match ep0.notify_append(1, 3, 8) {
            Err(FabricError::Backpressure { retry_after_ns }) => assert!(retry_after_ns > 0),
            other => panic!("expected backpressure, got {other:?}"),
        }
        let c = f.counters().snapshot();
        assert_eq!(c.notify_overflows, 1);
        assert_eq!(c.notify_posts, 2, "the failed append must not count as posted");
        // The stall was charged to the producer's clock exactly once.
        let m = f.model();
        let stall_floor = m.inject(Transport::Dmapp) + Endpoint::NOTIFY_BP_NS;
        assert!(ep0.clock().now() >= before + stall_floor);
    }

    #[test]
    fn notify_overflow_recovers_when_consumer_drains() {
        let f = fabric_with(Config { notify_depth: 2, ..Config::default() });
        let ep0 = Endpoint::new(f.clone(), 0);
        let ep1 = Endpoint::new(f.clone(), 1);
        ep0.notify_append(1, 1, 0).unwrap();
        ep0.notify_append(1, 2, 0).unwrap();
        // Drain one slot from the consumer side, then the stalled append
        // succeeds on retry (single-threaded here: drain first).
        assert_eq!(ep1.notify_pop().unwrap().tag, 1);
        ep0.notify_append(1, 3, 0).unwrap();
        assert_eq!(ep1.notify_pop().unwrap().tag, 2);
        assert_eq!(ep1.notify_pop().unwrap().tag, 3);
        assert_eq!(f.counters().snapshot().notify_posts, 3);
    }

    #[test]
    fn notified_ops_stay_deterministic_under_faults() {
        use crate::faults::FaultPlan;
        let run = || {
            let plan = FaultPlan { delay_prob: 0.5, bp_prob: 0.3, ..FaultPlan::heavy(99) };
            let f = fabric_with(Config { faults: plan, ..Config::default() });
            let ep0 = Endpoint::new(f.clone(), 0);
            let ep1 = Endpoint::new(f.clone(), 1);
            ep0.set_batching(true);
            let key = f.register(1, Segment::new(4096));
            let mut last = 0.0f64;
            for round in 0..20usize {
                for i in 0..4 {
                    ep0.put_implicit(key, round * 64 + i * 8, &[i as u8; 8]).unwrap();
                }
                ep0.put_notified(key, round * 64 + 32, &[7u8; 8], round as u32).unwrap();
                let rec = ep1.notify_pop().expect("in-order single-threaded delivery");
                assert_eq!(rec.tag, round as u32);
                assert!(rec.stamp >= last, "stamps toward one target are monotonic");
                last = rec.stamp;
            }
            (ep0.clock().now(), ep1.clock().now(), f.faults().total_injected())
        };
        let (a0, a1, ai) = run();
        let (b0, b1, bi) = run();
        assert_eq!(a0.to_bits(), b0.to_bits());
        assert_eq!(a1.to_bits(), b1.to_bits());
        assert_eq!(ai, bi);
        assert!(ai > 0, "the armed plan must inject");
    }

    #[test]
    fn drop_all_counts_unconsumed_records() {
        let (f, ep0, ep1, key) = setup();
        ep0.put_notified(key, 0, &[1u8; 8], 1).unwrap();
        ep0.put_notified(key, 8, &[2u8; 8], 2).unwrap();
        assert_eq!(ep1.notify_backlog(), 2);
        assert_eq!(ep1.notify_drop_all(), 2);
        assert_eq!(ep1.notify_backlog(), 0);
        let c = f.counters().snapshot();
        assert_eq!(c.notify_dropped, 2);
        assert_eq!(c.notify_consumed, 0, "dropped records are not consumed");
    }

    /// The hub's rings sit side by side and are borrowed, not locked: two
    /// of them run flat out at once — `p − 1` producers each, the owner
    /// popping — and every record must arrive once, on the ring it was
    /// sent to, in its source's order. (Endpoints are per thread here; with
    /// every plane disarmed a rank's endpoints share only atomics.)
    #[test]
    fn two_rings_under_concurrent_appends_deliver_once_in_source_order() {
        const P: u32 = 4;
        const PER: u32 = 300;
        let config = Config { notify_depth: 8, ..Config::default() };
        let f = Fabric::with_config(P as usize, 1, CostModel::default(), config);
        let start = std::sync::Barrier::new(2 * P as usize);
        std::thread::scope(|s| {
            for ring in 0..2u32 {
                let (f, start) = (&f, &start);
                for source in (0..P).filter(|&r| r != ring) {
                    s.spawn(move || {
                        let ep = Endpoint::new(f.clone(), source);
                        start.wait();
                        for tag in 0..PER {
                            ep.notify_append(ring, tag, (ring * P + source) as u64).unwrap();
                        }
                    });
                }
                s.spawn(move || {
                    let ep = Endpoint::new(f.clone(), ring);
                    start.wait();
                    let mut next = [0u32; P as usize];
                    for _ in 0..(P - 1) * PER {
                        let rec = loop {
                            match ep.notify_pop() {
                                Some(rec) => break rec,
                                None => std::thread::yield_now(),
                            }
                        };
                        assert_eq!(rec.bytes, (ring * P + rec.source) as u64, "wrong ring");
                        assert_eq!(rec.tag, next[rec.source as usize], "per-source order");
                        next[rec.source as usize] += 1;
                    }
                    assert_eq!(next[ring as usize], 0);
                });
            }
        });
        let c = f.counters().snapshot();
        assert_eq!(c.notify_posts, (2 * (P - 1) * PER) as u64);
        assert_eq!(c.notify_consumed, c.notify_posts, "every record arrived exactly once");
        assert!((0..P).all(|r| f.notify().queue(r).is_empty()));
    }

    // ------------------------------------------------ translation cache

    fn word_at(seg: &Segment, off: usize) -> u64 {
        seg.word(off).load(Ordering::Relaxed)
    }

    #[test]
    fn one_key_translates_once() {
        let (_f, ep0, _ep1, key) = setup();
        for i in 0..10_000usize {
            ep0.put_implicit(key, (i % 512) * 8, &[i as u8; 8]).unwrap();
        }
        assert_eq!(ep0.translation_misses(), 1);
    }

    #[test]
    fn any_deregister_costs_one_remiss_and_a_stale_key_is_unknown() {
        // The warm-cache version of `deregister_invalidates`.
        let (f, ep0, _ep1, key) = setup();
        let other = f.register(0, Segment::new(8));
        ep0.put(key, 0, &[1u8; 8]).unwrap();
        ep0.amo(key, 8, AmoOp::Add, 1, 0).unwrap();
        assert_eq!(ep0.translation_misses(), 1);
        f.deregister(other); // not a key this endpoint ever used
        ep0.put(key, 0, &[2u8; 8]).unwrap();
        ep0.get(key, 0, &mut [0u8; 8]).unwrap();
        assert_eq!(ep0.translation_misses(), 2, "one re-miss, then warm again");
        f.deregister(key);
        assert!(matches!(ep0.put(key, 0, &[3u8; 8]), Err(FabricError::UnknownKey(k)) if k == key));
        assert!(matches!(ep0.read_sync(key, 0), Err(FabricError::UnknownKey(_))));
    }

    #[test]
    fn reregistered_key_reaches_the_new_segment() {
        let f = Fabric::new(2, 1, CostModel::default());
        let ep0 = Endpoint::new(f.clone(), 0);
        let id = f.propose_id();
        let (old, new) = (Segment::new(64), Segment::new(64));
        let key = f.register_symmetric(1, id, old.clone()).unwrap();
        ep0.put(key, 0, &7u64.to_le_bytes()).unwrap();
        f.deregister(key);
        assert_eq!(f.register_symmetric(1, id, new.clone()).unwrap(), key);
        ep0.put(key, 0, &9u64.to_le_bytes()).unwrap();
        assert_eq!((word_at(&old, 0), word_at(&new, 0)), (7, 9));
    }

    #[test]
    fn mapping_replaced_by_an_id_collision_is_seen() {
        // A caller-chosen symmetric id that the id counter later reaches:
        // `register` replaces the mapping without a deregister in between.
        let f = Fabric::new(2, 1, CostModel::default());
        let ep0 = Endpoint::new(f.clone(), 0);
        let (old, new) = (Segment::new(64), Segment::new(64));
        let key = f.register_symmetric(1, f.propose_id() + 1, old.clone()).unwrap();
        ep0.put(key, 0, &7u64.to_le_bytes()).unwrap();
        assert_eq!(f.register(1, new.clone()), key);
        ep0.put(key, 0, &9u64.to_le_bytes()).unwrap();
        assert_eq!((word_at(&old, 0), word_at(&new, 0)), (7, 9));
    }

    #[test]
    fn working_set_beyond_capacity_stays_correct_and_bounded() {
        use crate::translate::CAPACITY;
        let f = Fabric::new(2, 1, CostModel::default());
        let ep0 = Endpoint::new(f.clone(), 0);
        let segs: Vec<_> = (0..4 * CAPACITY).map(|_| Segment::new(16)).collect();
        let keys: Vec<_> = segs.iter().map(|s| f.register(1, s.clone())).collect();
        for round in 1..=3u64 {
            for (i, &key) in keys.iter().enumerate() {
                ep0.put(key, 8, &(round * 1000 + i as u64).to_le_bytes()).unwrap();
                assert!(ep0.translations.len() <= CAPACITY);
            }
        }
        for (i, seg) in segs.iter().enumerate() {
            assert_eq!(word_at(seg, 8), 3000 + i as u64, "put {i} landed in the wrong segment");
        }
        // Round-robin over 4x capacity defeats any replacement order: every
        // lookup went to the registry, none was answered wrongly.
        assert_eq!(ep0.translation_misses(), 3 * keys.len() as u64);
    }

    #[test]
    fn op_after_an_observed_deregister_fails_on_another_thread() {
        use std::sync::atomic::AtomicBool;
        use std::sync::Barrier;
        for _ in 0..200 {
            let (f, _ep0, _ep1, key) = setup();
            let (warm, gone) = (Barrier::new(2), AtomicBool::new(false));
            std::thread::scope(|s| {
                s.spawn(|| {
                    let ep = Endpoint::new(f.clone(), 0);
                    ep.put_implicit(key, 0, &[1u8; 8]).unwrap();
                    warm.wait(); // the translation is cached before the deregister
                    let mut raced = 0u64;
                    while !gone.load(Ordering::Acquire) {
                        // Racing the deregister: either outcome is legal.
                        raced += ep.amo(key, 8, AmoOp::Add, 1, 0).is_ok() as u64;
                    }
                    // deregister → Release flag → Acquire: it happens-before this op.
                    assert!(
                        matches!(
                            ep.put_implicit(key, 0, &[2u8; 8]),
                            Err(FabricError::UnknownKey(_))
                        ),
                        "cached translation outlived an observed deregister ({raced} racing ops)"
                    );
                });
                warm.wait();
                f.deregister(key);
                gone.store(true, Ordering::Release);
            });
        }
    }

    #[test]
    fn freed_segment_memory_is_dropped_by_the_next_op_or_endpoint_drop() {
        let (f, ep0, ep1, key) = setup();
        let seg = f.resolve(key).unwrap();
        let idle = Endpoint::new(f.clone(), 0);
        let bystander = f.register(0, Segment::new(8));
        for ep in [&ep0, &ep1, &idle] {
            ep.put(key, 0, &[1u8; 8]).unwrap();
        }
        assert_eq!(Arc::strong_count(&seg), 5, "registry + three caches + this test");
        f.deregister(key);
        assert_eq!(Arc::strong_count(&seg), 4, "caches hold it until their next operation");
        // One further operation of any kind, on any key, failed or not.
        assert!(ep0.get(key, 0, &mut [0u8; 8]).is_err());
        ep1.amo(bystander, 0, AmoOp::Add, 1, 0).unwrap();
        assert_eq!(Arc::strong_count(&seg), 2);
        drop(idle);
        assert_eq!(Arc::strong_count(&seg), 1);
    }

    // ------------------------------------------------ the op skeleton, pinned

    /// What one public entry point does to the origin's clock, its pending
    /// horizon toward the target, the fabric counters and the trace.
    struct Pinned {
        clock: f64,
        pending: f64,
        counters: CounterSnapshot,
        /// `(kind, flavor, bytes, carries a flow, t_start, t_end)`.
        events: Vec<(EventKind, Flavor, u64, bool, f64, f64)>,
    }

    /// The cost-model terms the closed forms below are written in, for one
    /// transport and an origin whose clock reads `t0` when the op starts.
    struct Terms<'a> {
        m: &'a CostModel,
        t: Transport,
        t0: f64,
    }

    impl Terms<'_> {
        fn o(&self) -> f64 {
            self.m.inject(self.t)
        }
        fn g(&self) -> f64 {
            self.m.gap(self.t)
        }
        fn put(&self, n: usize) -> f64 {
            self.m.put_latency(self.t, n)
        }
        fn get(&self, n: usize) -> f64 {
            self.m.get_latency(self.t, n)
        }
        fn amo(&self) -> f64 {
            self.m.amo_latency(self.t)
        }
    }

    /// Stamp planted at `CELL` of both segments before each case.
    const PLANTED: f64 = 1.0e6;
    const CELL: usize = 512;

    type Run = fn(&Endpoint, SegKey, SegKey);
    type Want = fn(&Terms) -> Pinned;

    fn counted(f: impl FnOnce(&mut CounterSnapshot)) -> CounterSnapshot {
        let mut c = CounterSnapshot::default();
        f(&mut c);
        c
    }

    /// One data op of `bytes` in flavour `fl` issued at `t0`: what it costs
    /// the origin (`blocks` = the clock joins the completion) and leaves
    /// pending (implicit flavours only), from its wire latency `lat`.
    fn data_op(x: &Terms, kind: EventKind, fl: Flavor, bytes: u64, lat: f64) -> Pinned {
        let done = x.t0 + x.o() + lat;
        Pinned {
            clock: if fl == Flavor::Blocking { done } else { x.t0 + x.o() },
            pending: if fl == Flavor::Implicit { done } else { 0.0 },
            counters: counted(|c| match kind {
                EventKind::Put => (c.puts, c.bytes_put) = (1, bytes),
                EventKind::Get => (c.gets, c.bytes_get) = (1, bytes),
                _ => (c.amos, c.bytes_amo) = (1, bytes),
            }),
            events: vec![(kind, fl, bytes, false, x.t0, done)],
        }
    }

    /// A notified op: the data part of `data_op(.., Implicit, ..)` followed
    /// by the ordered notification, both in one flow.
    fn notified(x: &Terms, kind: EventKind, lat: f64) -> Pinned {
        let mut p = data_op(x, kind, Flavor::Implicit, 8, lat);
        let t1 = x.t0 + x.o();
        let posted = (t1 + x.o() + x.amo()).max(p.pending);
        p.clock = t1 + x.o();
        p.pending = posted;
        p.counters.notify_posts = 1;
        p.events[0].3 = true;
        p.events.push((EventKind::NotifyPost, Flavor::Implicit, 8, true, t1, posted));
        p
    }

    /// Every public op entry × {Dmapp, Xpmem}: clock, pending horizon,
    /// counters and the exact events equal the closed form from the cost
    /// model — the unit-level twin of "every artifact byte-identical".
    #[test]
    fn every_entry_point_matches_its_closed_form() {
        use EventKind::{Amo, BatchFlush, Get, NotifyPost, Put};
        use Flavor::{Blocking, Implicit, Nonblocking, NotApplicable};
        let table: &[(&str, Run, Want)] = &[
            (
                "put",
                |ep, k, _| {
                    ep.put(k, 0, &[1; 8]).unwrap();
                    assert_eq!(word_at(&ep.fabric().resolve(k).unwrap(), 0), ONES);
                },
                |x| data_op(x, Put, Blocking, 8, x.put(8)),
            ),
            (
                "put_nb",
                |ep, k, _| {
                    let h = ep.put_nb(k, 0, &[1; 8]).unwrap();
                    assert_eq!(
                        h.t_complete,
                        ep.clock().now() + ep.fabric().model().put_latency(ep.transport_to(1), 8)
                    );
                },
                |x| data_op(x, Put, Nonblocking, 8, x.put(8)),
            ),
            (
                "put_implicit",
                |ep, k, _| {
                    ep.put_implicit(k, 0, &[1; 8]).unwrap();
                    assert_eq!(word_at(&ep.fabric().resolve(k).unwrap(), 0), ONES);
                },
                |x| data_op(x, Put, Implicit, 8, x.put(8)),
            ),
            (
                "put_implicit batched x2",
                |ep, k, _| {
                    ep.set_batching(true);
                    ep.put_implicit(k, 0, &[1; 8]).unwrap();
                    ep.put_implicit(k, 8, &[2; 8]).unwrap();
                },
                |x| {
                    // o + g at issue; one 16-byte wire message at retire.
                    let issued = x.t0 + x.o() + x.g();
                    let done = issued + x.put(16);
                    Pinned {
                        clock: issued,
                        pending: done,
                        counters: counted(|c| {
                            (c.puts, c.bytes_put, c.batched_ops, c.batch_flushes) = (2, 16, 2, 1)
                        }),
                        events: vec![
                            (Put, Implicit, 16, false, x.t0, done),
                            (BatchFlush, NotApplicable, 0, false, x.t0, issued),
                        ],
                    }
                },
            ),
            (
                "get",
                |ep, k, _| {
                    let mut word = [0; 8];
                    ep.get(k, CELL, &mut word).unwrap();
                    assert_eq!(u64::from_le_bytes(word), 7);
                },
                |x| data_op(x, Get, Blocking, 8, x.get(8)),
            ),
            (
                "get_nb",
                |ep, k, _| {
                    let h = ep.get_nb(k, 0, &mut [0; 64]).unwrap();
                    assert_eq!(
                        h.t_complete,
                        ep.clock().now() + ep.fabric().model().get_latency(ep.transport_to(1), 64)
                    );
                },
                |x| data_op(x, Get, Nonblocking, 64, x.get(64)),
            ),
            (
                "get_implicit",
                |ep, k, _| {
                    let mut word = [0; 8];
                    ep.get_implicit(k, CELL, &mut word).unwrap();
                    assert_eq!(u64::from_le_bytes(word), 7);
                },
                |x| data_op(x, Get, Implicit, 8, x.get(8)),
            ),
            (
                "amo",
                |ep, k, _| assert_eq!(ep.amo(k, CELL, AmoOp::Add, 1, 0).unwrap(), 7),
                |x| data_op(x, Amo, Blocking, 8, x.amo()),
            ),
            (
                "amo_implicit",
                |ep, k, _| ep.amo_implicit(k, 0, AmoOp::Add, 1).unwrap(),
                |x| data_op(x, Amo, Implicit, 8, x.amo()),
            ),
            (
                "amo_implicit batched x2",
                |ep, k, _| {
                    ep.set_batching(true);
                    ep.amo_implicit(k, 0, AmoOp::Add, 1).unwrap();
                    ep.amo_implicit(k, 8, AmoOp::Add, 1).unwrap();
                },
                |x| {
                    // The chain pipelines behind its first AMO at gap spacing.
                    let issued = x.t0 + x.o() + x.g();
                    let done = issued + (x.amo() + 1.0 * x.g());
                    Pinned {
                        clock: issued,
                        pending: done,
                        counters: counted(|c| {
                            (c.amos, c.bytes_amo, c.batched_ops, c.batch_flushes) = (2, 16, 2, 1)
                        }),
                        events: vec![
                            (Amo, Implicit, 16, false, x.t0, done),
                            (BatchFlush, NotApplicable, 0, false, x.t0, issued),
                        ],
                    }
                },
            ),
            (
                "amo_sync",
                |ep, k, _| {
                    ep.amo_sync(k, 0, AmoOp::Add, 5, 0).unwrap();
                },
                |x| Pinned { events: vec![], ..data_op(x, Amo, Blocking, 8, x.amo()) },
            ),
            (
                "amo_sync_release",
                |ep, k, _| ep.amo_sync_release(k, 0, AmoOp::Add, 5).unwrap(),
                |x| Pinned { events: vec![], ..data_op(x, Amo, Implicit, 8, x.amo()) },
            ),
            (
                "amo_sync_release_ordered behind a 2 KiB put",
                |ep, k, _| {
                    ep.put_implicit(k, 1024, &[3; 2048]).unwrap();
                    ep.amo_sync_release_ordered(k, 0, AmoOp::Add, 5).unwrap();
                },
                |x| {
                    let mut p = data_op(x, Put, Implicit, 2048, x.put(2048));
                    let t1 = x.t0 + x.o();
                    p.clock = t1 + x.o();
                    p.pending = (t1 + x.o() + x.amo()).max(p.pending);
                    (p.counters.amos, p.counters.bytes_amo) = (1, 8);
                    p
                },
            ),
            (
                "read_sync remote",
                |ep, k, _| assert_eq!(ep.read_sync(k, CELL).unwrap(), 7),
                |x| Pinned {
                    // Both joins: the planted stamp plus the read's latency,
                    // then the read's own round trip on top.
                    clock: (x.t0 + x.o()).max(PLANTED + x.get(8)) + x.get(8),
                    pending: 0.0,
                    counters: counted(|c| c.gets = 1),
                    events: vec![],
                },
            ),
            (
                "read_sync local",
                |ep, _, local| assert_eq!(ep.read_sync(local, CELL).unwrap(), 7),
                |_| Pinned {
                    clock: PLANTED,
                    pending: 0.0,
                    counters: CounterSnapshot::default(),
                    events: vec![],
                },
            ),
            (
                "write_sync",
                |ep, k, _| ep.write_sync(k, 0, 9).unwrap(),
                |x| Pinned {
                    counters: counted(|c| c.puts = 1),
                    events: vec![],
                    ..data_op(x, Put, Implicit, 8, x.put(8))
                },
            ),
            (
                "notify_append",
                |ep, _, _| ep.notify_append(1, 3, 24).unwrap(),
                |x| {
                    let posted = x.t0 + x.o() + x.amo();
                    Pinned {
                        clock: x.t0 + x.o(),
                        pending: posted,
                        counters: counted(|c| c.notify_posts = 1),
                        events: vec![(NotifyPost, Implicit, 24, false, x.t0, posted)],
                    }
                },
            ),
            (
                "put_notified",
                |ep, k, _| ep.put_notified(k, 0, &[1; 8], 3).unwrap(),
                |x| notified(x, Put, x.put(8)),
            ),
            (
                "get_notified",
                |ep, k, _| ep.get_notified(k, 0, &mut [0; 8], 3).unwrap(),
                |x| notified(x, Get, x.get(8)),
            ),
            (
                "amo_notified",
                |ep, k, _| ep.amo_notified(k, 0, AmoOp::Add, 1, 3).unwrap(),
                |x| notified(x, Amo, x.amo()),
            ),
        ];
        for (node_size, t) in TRANSPORTS {
            for (name, run, want) in table {
                pin(name, node_size, t, run, want);
            }
            // The multi-element body: a span of `n` leaves what `n`
            // one-element calls leave, batching off and on.
            for n in SPANS {
                for batch in [false, true] {
                    pin(
                        &format!("amo_implicit_span of {n}, batching {batch}"),
                        node_size,
                        t,
                        &|ep, k, _| {
                            ep.set_batching(batch);
                            ep.amo_implicit_span(k, 0, AmoOp::Add, span_operands(n)).unwrap();
                            let seg = ep.fabric().resolve(k).unwrap();
                            assert!((0..n).all(|i| word_at(&seg, 8 * i) == i as u64 + 1));
                        },
                        &|x| span_bill(x, n, batch),
                    );
                }
            }
            // The fetching list body: the elements pipeline, the origin
            // waits for the last; one element is `amo`, to the bit.
            for n in FETCH_SPANS {
                pin(
                    &format!("amo_fetch_list of {n}"),
                    node_size,
                    t,
                    &|ep, k, _| {
                        let seg = ep.fabric().resolve(k).unwrap();
                        (0..n)
                            .for_each(|i| seg.word(8 * i).store(10 * i as u64, Ordering::Relaxed));
                        let mut old = vec![0u64; n];
                        let list = span_list(AmoOp::Add, n);
                        ep.amo_fetch_list(k, 0, 8 * n, list, |i, w| old[i] = w).unwrap();
                        // Old values in element order; every operand applied.
                        assert!(old.into_iter().eq((0..n).map(|i| 10 * i as u64)));
                        assert!((0..n).all(|i| word_at(&seg, 8 * i) == 11 * i as u64 + 1));
                    },
                    &|x| match n {
                        1 => data_op(x, Amo, Blocking, 8, x.amo()),
                        _ => fetch_list_bill(x, n),
                    },
                );
            }
        }
    }

    const TRANSPORTS: [(usize, Transport); 2] = [(1, Transport::Dmapp), (2, Transport::Xpmem)];
    /// Element counts the multi-element body is pinned at (64 fills a burst).
    const SPANS: [usize; 4] = [1, 2, 8, 64];
    /// Element counts the fetching list body is pinned at.
    const FETCH_SPANS: [usize; 3] = [1, 2, 8];
    const ONES: u64 = 0x0101_0101_0101_0101;

    fn span_operands(n: usize) -> impl ExactSizeIterator<Item = u64> {
        (0..n).map(|i| i as u64 + 1)
    }

    /// The fetching list get_accumulate's hardware path issues: `op` on
    /// `n` consecutive words, with the operands of [`span_operands`].
    fn span_list(op: AmoOp, n: usize) -> impl Iterator<Item = FetchAmo> + Clone {
        (0..n).map(move |i| FetchAmo { at: 8 * i, op, operand: i as u64 + 1, compare: 0 })
    }

    /// Run one case on a fresh two-rank fabric whose origin clock reads
    /// 1234.5 and compare everything it left behind with `want`.
    fn pin(
        name: &str,
        node_size: usize,
        t: Transport,
        run: &dyn Fn(&Endpoint, SegKey, SegKey),
        want: &dyn Fn(&Terms) -> Pinned,
    ) {
        let config = Config { telemetry_ring: Some(128), ..Config::default() };
        let f = Fabric::with_config(2, node_size, CostModel::default(), config);
        let ep = Endpoint::new(f.clone(), 0);
        assert_eq!(ep.transport_to(1), t);
        let (remote, local) = (Segment::new(4096), Segment::new(4096));
        for seg in [&remote, &local] {
            seg.word(CELL).store(7, Ordering::Relaxed);
            seg.word(CELL + 8).store(stamp_to_bits(PLANTED), Ordering::Relaxed);
        }
        let (key, local_key) = (f.register(1, remote), f.register(0, local));
        ep.charge(1234.5);
        run(&ep, key, local_key);
        let want = want(&Terms { m: f.model(), t, t0: 1234.5 });
        let ctx = format!("{name} over {t:?}");
        assert_eq!(ep.clock().now(), want.clock, "{ctx}: clock");
        // Retires an open burst: its counters and events are part
        // of what the batched cases pin.
        assert_eq!(ep.pending_for(1), want.pending, "{ctx}: pending horizon");
        let counters = f.counters().snapshot();
        assert_eq!(counters, want.counters, "{ctx}: counters");
        assert_eq!(counters.bytes_amo, 8 * counters.amos, "{ctx}: AMO volume is derived");
        let got: Vec<_> = f
            .telemetry()
            .events()
            .iter()
            .map(|e| {
                assert_eq!((e.origin, e.target, e.transport), (0, 1, Some(t)), "{ctx}");
                (e.kind, e.flavor, e.bytes, e.flow != NO_FLOW, e.t_start, e.t_end)
            })
            .collect();
        assert_eq!(got, want.events, "{ctx}: events");
    }

    /// What `n` one-element `amo_implicit` calls issued from `t0` leave, in
    /// the arithmetic (and its association) that each call performs.
    fn span_bill(x: &Terms, n: usize, batch: bool) -> Pinned {
        use EventKind::{Amo, BatchFlush};
        use Flavor::{Implicit, NotApplicable};
        let (mut now, mut pending, mut events) = (x.t0, 0.0f64, vec![]);
        if batch {
            // One chain: o, then g per further member, retired as a whole.
            for i in 0..n {
                now += if i == 0 { x.o() } else { x.g() };
            }
            pending = now + (x.amo() + (n - 1) as f64 * x.g());
            events.push((Amo, Implicit, 8 * n as u64, false, x.t0, pending));
            events.push((BatchFlush, NotApplicable, 0, false, x.t0, now));
        } else {
            for _ in 0..n {
                let t_start = now;
                now += x.o();
                let done = now + x.amo();
                pending = pending.max(done);
                events.push((Amo, Implicit, 8, false, t_start, done));
            }
        }
        let n = n as u64;
        let counters = counted(|c| {
            (c.amos, c.bytes_amo) = (n, 8 * n);
            if batch {
                (c.batched_ops, c.batch_flushes) = (n, 1);
            }
        });
        Pinned { clock: now, pending, counters, events }
    }

    /// What `amo_fetch_list` of `n` issued from `t0` leaves: an injection
    /// per element, then the wire latency of the last; nothing pending.
    fn fetch_list_bill(x: &Terms, n: usize) -> Pinned {
        let (mut now, mut events) = (x.t0, vec![]);
        for _ in 0..n {
            let t_start = now;
            now += x.o();
            events.push((EventKind::Amo, Flavor::Blocking, 8, false, t_start, now + x.amo()));
        }
        let n = n as u64;
        Pinned {
            clock: now + x.amo(),
            pending: 0.0,
            counters: counted(|c| (c.amos, c.bytes_amo) = (n, 8 * n)),
            events,
        }
    }

    /// Under a seeded fault plan a span draws once per element, in order:
    /// the faulted clock and horizon are, to the bit, what the per-element
    /// arithmetic gives on the draws of an identically seeded plane.
    #[test]
    fn a_faulted_span_bills_like_its_elements_one_by_one() {
        use crate::faults::{FaultPlan, Faults};
        for (node_size, t) in TRANSPORTS {
            for n in SPANS {
                for batch in [false, true] {
                    let plan = FaultPlan::heavy(0xFA17 + n as u64);
                    let config = Config { faults: plan.clone(), ..Config::default() };
                    let f = Fabric::with_config(2, node_size, CostModel::default(), config);
                    let ep = Endpoint::new(f.clone(), 0);
                    let key = f.register(1, Segment::new(4096));
                    ep.set_batching(batch);
                    ep.charge(1234.5);
                    ep.amo_implicit_span(key, 0, AmoOp::Add, span_operands(n)).unwrap();

                    let twin = Faults::new(2, plan);
                    let m = f.model();
                    let (o, g, lat) = (m.inject(t), m.gap(t), m.amo_latency(t));
                    let (mut now, mut pending, mut slowest) = (1234.5, 0.0f64, 0.0f64);
                    for i in 0..n {
                        let d = twin.draw_op(0, lat, true);
                        now += d.pause_ns;
                        now += d.stall_ns;
                        let extra = d.extra_ns + d.delay_ns;
                        if batch {
                            now += if i == 0 { o } else { g };
                            slowest = slowest.max(extra);
                        } else {
                            now += o;
                            pending = pending.max(now + lat + extra);
                        }
                    }
                    if batch {
                        pending = now + (lat + (n - 1) as f64 * g) + slowest;
                    }
                    let ctx = format!("span of {n} over {t:?}, batching {batch}");
                    assert_eq!(ep.clock().now().to_bits(), now.to_bits(), "{ctx}: clock");
                    assert_eq!(ep.pending_for(1).to_bits(), pending.to_bits(), "{ctx}: horizon");
                    assert_eq!(f.faults().total_injected(), twin.total_injected(), "{ctx}");
                }
            }
        }
    }

    /// The fetching list under the same plan: one blocking draw per element
    /// (a fetch cannot retire late), the wait covers the last element and
    /// any earlier one a fault kept out longer, and the faults injected are
    /// those of that many one-element `amo` calls on a plane seeded alike.
    #[test]
    fn a_faulted_fetch_list_bills_like_its_elements_one_by_one() {
        use crate::faults::{FaultPlan, Faults};
        for (node_size, t) in TRANSPORTS {
            for n in FETCH_SPANS {
                let plan = FaultPlan::heavy(0xFA17 + n as u64);
                let fabric = || {
                    let config = Config { faults: plan.clone(), ..Config::default() };
                    let f = Fabric::with_config(2, node_size, CostModel::default(), config);
                    let ep = Endpoint::new(f.clone(), 0);
                    ep.charge(1234.5);
                    (f.register(1, Segment::new(4096)), f, ep)
                };
                let (key, f, ep) = fabric();
                ep.amo_fetch_list(key, 0, 8 * n, span_list(AmoOp::Add, n), |_, _| {}).unwrap();

                let twin = Faults::new(2, plan.clone());
                let m = f.model();
                let (o, lat) = (m.inject(t), m.amo_latency(t));
                let (mut now, mut earlier, mut done, mut wire) = (1234.5, 0.0f64, 0.0f64, 0.0);
                for _ in 0..n {
                    let d = twin.draw_op(0, lat, false);
                    now += d.pause_ns;
                    now += d.stall_ns;
                    let extra = d.extra_ns + d.delay_ns;
                    earlier = earlier.max(done);
                    now += o;
                    (done, wire) = (now + lat + extra, lat + extra);
                }
                now = (now + wire).max(earlier);
                let ctx = format!("fetch list of {n} over {t:?}");
                assert_eq!(ep.clock().now().to_bits(), now.to_bits(), "{ctx}: clock");
                assert_eq!(ep.pending_for(1), 0.0, "{ctx}: nothing left pending");
                assert_eq!(f.faults().total_injected(), twin.total_injected(), "{ctx}");

                let (key, singles, ep) = fabric();
                for (i, operand) in span_operands(n).enumerate() {
                    ep.amo(key, 8 * i, AmoOp::Add, operand, 0).unwrap();
                }
                assert_eq!(singles.faults().total_injected(), twin.total_injected(), "{ctx}");
                assert_eq!(singles.counters().snapshot(), f.counters().snapshot(), "{ctx}");
            }
        }
    }

    type Announced = (McObj, usize, usize, AccessKind, bool, &'static str);

    /// A model-checker gate that schedules at once and keeps what rank 0
    /// announced.
    #[derive(Default)]
    struct Recorder(std::sync::Mutex<Vec<Announced>>);

    impl crate::mc::McGate for Recorder {
        fn op(&self, rank: u32, op: McOp) {
            assert_eq!(rank, 0);
            self.0.lock().unwrap().push((op.obj, op.lo, op.hi, op.kind, op.fetch, op.label));
        }
        fn poll(&self, _: u32, _: McObj, _: &'static str, _: Box<dyn Fn() -> bool + Send + Sync>) {}
        fn collective(&self, _: u32, _: &'static str) -> bool {
            true
        }
    }

    /// Under a model-checker gate a span announces each element on its own,
    /// in order: the `n` tuples that `n` one-element calls announce.
    #[test]
    fn a_span_announces_each_element_to_the_model_checker() {
        for n in SPANS {
            for batch in [false, true] {
                let gate = Arc::new(Recorder::default());
                let f = fabric_with(Config { mc: Some(gate.clone()), ..Config::default() });
                let ep = Endpoint::new(f.clone(), 0);
                let key = f.register(1, Segment::new(4096));
                ep.set_batching(batch);
                ep.amo_implicit_span(key, 16, AmoOp::Xor, span_operands(n)).unwrap();
                let obj = McObj::Seg { owner: 1, id: key.id };
                let want: Vec<Announced> = (0..n)
                    .map(|i| (obj, 16 + 8 * i, 24 + 8 * i, AccessKind::Acc(3), false, "amo"))
                    .collect();
                assert_eq!(*gate.0.lock().unwrap(), want, "span of {n}, batching {batch}");
            }
        }
        // The fetching list likewise, each element order-observing.
        for n in FETCH_SPANS {
            let gate = Arc::new(Recorder::default());
            let f = fabric_with(Config { mc: Some(gate.clone()), ..Config::default() });
            let ep = Endpoint::new(f.clone(), 0);
            let key = f.register(1, Segment::new(4096));
            ep.amo_fetch_list(key, 16, 8 * n, span_list(AmoOp::Xor, n), |_, _| {}).unwrap();
            let obj = McObj::Seg { owner: 1, id: key.id };
            let want: Vec<Announced> = (0..n)
                .map(|i| (obj, 16 + 8 * i, 24 + 8 * i, AccessKind::Acc(3), true, "amo"))
                .collect();
            assert_eq!(*gate.0.lock().unwrap(), want, "fetch list of {n}");
        }
    }

    /// An ordered release hands the flow in scope to the signalled rank's
    /// mailbox (once its span is accepted, before its AMO); a refused one
    /// hands over nothing.
    #[test]
    fn only_an_accepted_release_publishes_its_flow() {
        let f = fabric_with(Config { telemetry_ring: Some(8), ..Config::default() });
        let ep = Endpoint::new(f.clone(), 0);
        let key = f.register(1, Segment::new(64));
        let prev = ep.flow_open();
        let flow = ep.current_flow();
        assert_ne!(flow, NO_FLOW, "tracing is armed, so the scope has a flow");
        let refused = ep.amo_sync_release_ordered(key, 12, AmoOp::Add, 1);
        assert_eq!(refused, Err(FabricError::Misaligned { key, offset: 12 }));
        assert_eq!(f.telemetry().take_signal_flow(1), NO_FLOW, "a refused release");
        ep.amo_sync_release_ordered(key, 0, AmoOp::Add, 1).unwrap();
        assert_eq!(f.telemetry().take_signal_flow(1), flow);
        ep.flow_close(prev);
    }

    /// The elements of one list take effect in list order, the assumption a
    /// versioned read rests on (DESIGN.md "The data path"): each returns
    /// its word as the elements before it left it, and the last, which
    /// re-reads the first word, sees the effect of every earlier element.
    #[test]
    fn a_list_takes_effect_in_issue_order() {
        let f = fabric_with(Config::default());
        let ep = Endpoint::new(f.clone(), 0);
        let key = f.register(1, Segment::new(64));
        let list = [
            FetchAmo { at: 0, op: AmoOp::Add, operand: 5, compare: 0 },
            FetchAmo::cas(8, 7, 0),
            FetchAmo::cas(0, 9, 5),
            FetchAmo { at: 0, op: AmoOp::Xor, operand: 3, compare: 0 },
            FetchAmo { at: 8, op: AmoOp::Swap, operand: 1, compare: 0 },
            FetchAmo::read(0),
        ];
        let mut old = vec![];
        ep.amo_fetch_list(key, 0, 16, list.into_iter(), |i, w| old.push((i, w))).unwrap();
        assert_eq!(old, [(0, 0), (1, 0), (2, 5), (3, 9), (4, 7), (5, 9 ^ 3)]);
        let seg = f.resolve(key).unwrap();
        assert_eq!((word_at(&seg, 0), word_at(&seg, 8)), (9 ^ 3, 1));
    }

    /// A misaligned AMO or sync-variable access — through any entry point —
    /// and a span that does not fit are errors raised before anything is
    /// priced, counted, announced or written: clock, counters, horizon,
    /// bursts, the target's ring and its memory read as before.
    #[test]
    fn a_misaligned_or_overlong_amo_is_refused_before_anything_moves() {
        type Try = fn(&Endpoint, SegKey) -> Result<(), FabricError>;
        type Refusal = fn(SegKey) -> FabricError;
        const LEN: usize = 256;
        let refused: &[(&str, Try, Refusal)] = &[
            ("amo", |ep, k| ep.amo(k, 12, AmoOp::Add, 1, 0).map(drop), misaligned_at_12),
            ("amo_implicit", |ep, k| ep.amo_implicit(k, 12, AmoOp::Add, 1), misaligned_at_12),
            ("amo_sync", |ep, k| ep.amo_sync(k, 12, AmoOp::Add, 1, 0).map(drop), misaligned_at_12),
            (
                "amo_sync_release",
                |ep, k| ep.amo_sync_release(k, 12, AmoOp::Add, 1),
                misaligned_at_12,
            ),
            (
                "amo_sync_release_ordered",
                |ep, k| ep.amo_sync_release_ordered(k, 12, AmoOp::Add, 1),
                misaligned_at_12,
            ),
            ("amo_notified", |ep, k| ep.amo_notified(k, 12, AmoOp::Add, 1, 3), misaligned_at_12),
            ("read_sync", |ep, k| ep.read_sync(k, 12).map(drop), misaligned_at_12),
            ("write_sync", |ep, k| ep.write_sync(k, 12, 9), misaligned_at_12),
            (
                "amo_implicit_span, misaligned base",
                |ep, k| ep.amo_implicit_span(k, 12, AmoOp::Add, span_operands(3)),
                misaligned_at_12,
            ),
            (
                "amo_implicit_span, last element out of bounds",
                |ep, k| ep.amo_implicit_span(k, LEN - 16, AmoOp::Add, span_operands(3)),
                |key| FabricError::OutOfBounds { key, offset: LEN - 16, len: 24, seg_len: LEN },
            ),
            (
                "amo_fetch_list, misaligned base",
                |ep, k| ep.amo_fetch_list(k, 12, 24, span_list(AmoOp::Add, 3), |_, _| {}),
                misaligned_at_12,
            ),
            (
                "amo_fetch_list, span out of bounds",
                |ep, k| ep.amo_fetch_list(k, LEN - 16, 24, span_list(AmoOp::Add, 3), |_, _| {}),
                |key| FabricError::OutOfBounds { key, offset: LEN - 16, len: 24, seg_len: LEN },
            ),
            (
                "amo_fetch_list, last element misaligned",
                |ep, k| {
                    let list = span_list(AmoOp::Add, 2).chain([FetchAmo::read(4)]);
                    ep.amo_fetch_list(k, 8, 24, list, |_, _| {})
                },
                misaligned_at_12,
            ),
            (
                "amo_fetch_list, last element outside its span",
                |ep, k| {
                    let list = span_list(AmoOp::Add, 2).chain([FetchAmo::read(16)]);
                    ep.amo_fetch_list(k, 0, 16, list, |_, _| {})
                },
                |key| FabricError::OutsideSpan { key, offset: 16, lo: 0, hi: 16 },
            ),
        ];
        fn misaligned_at_12(key: SegKey) -> FabricError {
            FabricError::Misaligned { key, offset: 12 }
        }
        for (name, attempt, want) in refused {
            for batch in [false, true] {
                let f = fabric_with(Config { telemetry_ring: Some(8), ..Config::default() });
                let (ep0, ep1) = (Endpoint::new(f.clone(), 0), Endpoint::new(f.clone(), 1));
                let seg = Segment::new(LEN);
                let planted: Vec<u8> = (0..LEN).map(|i| i as u8 | 1).collect();
                seg.write(0, &planted);
                let key = f.register(1, seg.clone());
                ep0.set_batching(batch);
                ep0.charge(99.5);
                let before = f.counters().snapshot();
                assert_eq!(attempt(&ep0, key), Err(want(key)), "{name}");
                let ctx = format!("{name}, batching {batch}");
                assert_eq!(ep0.clock().now().to_bits(), 99.5f64.to_bits(), "{ctx}: clock");
                assert_eq!(f.counters().snapshot(), before, "{ctx}: counters");
                assert_eq!((ep0.open_bursts(), ep0.pending_for(1)), (0, 0.0), "{ctx}: horizon");
                assert_eq!(ep1.notify_backlog(), 0, "{ctx}: nothing was posted");
                assert!(f.telemetry().events().is_empty(), "{ctx}: nothing was traced");
                let mut now = vec![0u8; LEN];
                seg.read(0, &mut now);
                assert_eq!(now, planted, "{ctx}: target memory");
            }
        }
    }

    /// `Config` → `Fabric` → `Endpoint`: each knob arms exactly its planes,
    /// the default arms none, and the endpoint holds what the fabric computed.
    #[test]
    fn each_knob_arms_exactly_its_hooks() {
        use crate::faults::FaultPlan;
        use crate::RacecheckMode;
        let d = Config::default;
        let table = [
            (d(), Hooks::default()),
            (Config { faults: FaultPlan::light(3), ..d() }, Hooks::FAULTS),
            (Config { telemetry_ring: Some(8), ..d() }, Hooks::TRACE),
            (Config { metrics: true, ..d() }, Hooks::TRACE),
            (Config { racecheck: RacecheckMode::Report, ..d() }, Hooks::RACECHECK),
            (Config { mc: Some(Arc::new(Recorder::default())), ..d() }, Hooks::MC),
        ];
        for (config, want) in table {
            let traced = config.telemetry_ring.is_some();
            let f = fabric_with(config);
            assert_eq!((f.hooks(), Endpoint::new(f.clone(), 0).hooks()), (want, want));
            // The byte says what the planes themselves were built as.
            assert_eq!(want.has(Hooks::FAULTS), f.faults().active());
            assert_eq!(want.has(Hooks::TRACE), f.telemetry().tracing());
            // Tracing, and nothing else, arms the flight recorder.
            assert_eq!(f.telemetry().flight_enabled(), traced);
            assert_eq!(want.has(Hooks::RACECHECK), f.shadow().active());
            assert_eq!(want.has(Hooks::MC), f.mc_gate().is_some());
        }
    }

    /// The spin rule: with more ranks than cores no wait spins (the peer
    /// waited for may need the core), with every rank on a core of its own
    /// every wait does; an endpoint keeps its fabric's verdict.
    #[test]
    fn waits_spin_only_when_every_rank_can_own_a_core() {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        for (p, spins) in [(1, true), (cores, true), (cores + 1, false), (4 * cores, false)] {
            let f = Fabric::with_config(p, 1, CostModel::default(), Config::default());
            assert_eq!(f.spins(), spins, "p = {p} on {cores} cores");
            assert_eq!(Endpoint::new(f, 0).spins, spins, "p = {p}: the endpoint's copy");
        }
    }

    #[test]
    fn counters_track_ops() {
        let (f, ep0, _ep1, key) = setup();
        let before = f.counters().snapshot();
        ep0.put(key, 0, &[0u8; 100]).unwrap();
        let mut buf = [0u8; 50];
        ep0.get(key, 0, &mut buf).unwrap();
        ep0.amo(key, 0, AmoOp::Add, 1, 0).unwrap();
        let d = f.counters().snapshot().since(&before);
        assert_eq!((d.puts, d.gets, d.amos), (1, 1, 1));
        assert_eq!((d.bytes_put, d.bytes_get), (100, 50));
    }

    // ------------------------------------------------ per-rank counter blocks

    /// Rank `r`'s counter block, as a snapshot with the sync fields zero.
    fn block(f: &Fabric, r: u32) -> CounterSnapshot {
        let mut snap = CounterSnapshot::default();
        f.counters().rank(r).add_to(&mut snap);
        snap
    }

    /// An op issued by rank `r` writes rank `r`'s counter block and, if it
    /// is an AMO or a completion, the job's shared sync line: never another
    /// rank's block.
    #[test]
    fn an_op_moves_only_its_own_ranks_block_and_the_sync_line() {
        type Run = fn(&Endpoint, SegKey);
        // (entry point, writes the issuer's block, writes the sync line)
        let ops: &[(&str, Run, bool, bool)] = &[
            ("put", |ep, k| ep.put(k, 0, &[1; 8]).unwrap(), true, false),
            (
                "put_nb",
                |ep, k| {
                    ep.put_nb(k, 0, &[1; 8]).unwrap();
                },
                true,
                false,
            ),
            ("put_implicit", |ep, k| ep.put_implicit(k, 0, &[1; 8]).unwrap(), true, false),
            (
                "put_implicit batched, retired",
                |ep, k| {
                    ep.set_batching(true);
                    ep.put_implicit(k, 0, &[1; 8]).unwrap();
                    ep.put_implicit(k, 64, &[1; 8]).unwrap();
                    ep.pending_for(k.rank);
                },
                true,
                false,
            ),
            ("get", |ep, k| ep.get(k, 0, &mut [0; 8]).unwrap(), true, false),
            ("get_implicit", |ep, k| ep.get_implicit(k, 0, &mut [0; 8]).unwrap(), true, false),
            (
                "remote read_sync",
                |ep, k| {
                    ep.read_sync(k, 0).unwrap();
                },
                true,
                false,
            ),
            ("write_sync", |ep, k| ep.write_sync(k, 0, 1).unwrap(), true, false),
            (
                "amo",
                |ep, k| {
                    ep.amo(k, 0, AmoOp::Add, 1, 0).unwrap();
                },
                false,
                true,
            ),
            ("amo_implicit", |ep, k| ep.amo_implicit(k, 0, AmoOp::Add, 1).unwrap(), false, true),
            (
                "amo_implicit batched",
                |ep, k| {
                    ep.set_batching(true);
                    ep.amo_implicit(k, 0, AmoOp::Add, 1).unwrap();
                },
                true,
                true,
            ),
            (
                "amo_fetch_list",
                |ep, k| ep.amo_fetch_list(k, 0, 16, span_list(AmoOp::Add, 2), |_, _| ()).unwrap(),
                false,
                true,
            ),
            (
                "amo_sync",
                |ep, k| {
                    ep.amo_sync(k, 0, AmoOp::Add, 1, 0).unwrap();
                },
                false,
                true,
            ),
            (
                "amo_sync_release",
                |ep, k| ep.amo_sync_release(k, 0, AmoOp::Add, 1).unwrap(),
                false,
                true,
            ),
            ("put_notified", |ep, k| ep.put_notified(k, 0, &[1; 8], 5).unwrap(), true, false),
            (
                "notify_append to itself, then notify_pop",
                |ep, _| {
                    ep.notify_append(ep.rank(), 5, 0).unwrap();
                    ep.notify_pop().unwrap();
                },
                true,
                false,
            ),
            (
                "notify_drop_all",
                |ep, _| {
                    ep.notify_append(ep.rank(), 5, 0).unwrap();
                    assert_eq!(ep.notify_drop_all(), 1);
                },
                true,
                false,
            ),
            ("count_dropped", |ep, _| ep.count_dropped(3), true, false),
            ("flush_target", |ep, k| ep.flush_target(k.rank), false, true),
            ("gsync", |ep, _| ep.gsync(), false, true),
            ("count_epoch(Fence)", |ep, _| ep.count_epoch(EventKind::Fence), false, true),
        ];
        let none = CounterSnapshot::default();
        for &(name, run, own, sync) in ops {
            for r in 0..3u32 {
                let f = Fabric::with_config(3, 1, CostModel::default(), Config::default());
                let key = f.register((r + 1) % 3, Segment::new(4096));
                let ep = Endpoint::new(f.clone(), r);
                let (before, total) = ([0, 1, 2].map(|q| block(&f, q)), f.counters().snapshot());
                run(&ep, key);
                let ctx = format!("{name} issued by rank {r}");
                for q in (0..3).filter(|&q| q != r) {
                    assert_eq!(block(&f, q), before[q as usize], "{ctx} moved rank {q}'s block");
                }
                let moved = block(&f, r).since(&before[r as usize]);
                let on_sync = f.counters().snapshot().since(&total).since(&moved);
                assert_eq!(moved != none, own, "{ctx}: its own block");
                assert_eq!(on_sync != none, sync, "{ctx}: the sync line");
            }
        }
    }

    /// Four ranks issue known numbers of puts, gets, notified puts, AMOs
    /// and flushes at once, in two phases a barrier apart: the snapshot
    /// taken between the barriers is the exact total of every phase so far,
    /// and `since` the total of one phase.
    #[test]
    fn concurrent_ranks_count_exact_totals_phase_by_phase() {
        const P: u32 = 4;
        // Per rank and phase: puts, gets, notified puts, AMOs, flushes.
        const PHASES: [[u64; 5]; 2] = [[2000, 1000, 48, 600, 30], [300, 1500, 16, 900, 70]];
        let f = Fabric::with_config(P as usize, 2, CostModel::default(), Config::default());
        let keys: Vec<_> = (0..P).map(|r| f.register(r, Segment::new(4096))).collect();
        let barrier = std::sync::Barrier::new(P as usize);
        let snaps = std::thread::scope(|s| {
            let ranks: Vec<_> = (0..P)
                .map(|r| {
                    let (f, keys, barrier) = (&f, &keys, &barrier);
                    s.spawn(move || {
                        let ep = Endpoint::new(f.clone(), r);
                        let key = keys[((r + 1) % P) as usize];
                        let mut snaps = vec![f.counters().snapshot()];
                        barrier.wait();
                        for [puts, gets, notified, amos, flushes] in PHASES {
                            for i in 0..puts {
                                ep.put_implicit(key, 8 * (i as usize % 64), &[1; 8]).unwrap();
                            }
                            for _ in 0..gets {
                                ep.get_implicit(key, 0, &mut [0; 8]).unwrap();
                            }
                            for _ in 0..notified {
                                ep.put_notified(key, 512, &[2; 8], 9).unwrap();
                            }
                            for i in 0..amos {
                                if i % 2 == 0 {
                                    ep.amo(key, 1024, AmoOp::Add, 1, 0).unwrap();
                                } else {
                                    ep.amo_implicit(key, 1024, AmoOp::Add, 1).unwrap();
                                }
                            }
                            for _ in 0..flushes {
                                ep.flush_target(key.rank);
                            }
                            // This rank's ring holds what its one producer
                            // notified this phase.
                            let mut popped = 0;
                            while popped < notified {
                                match ep.notify_pop() {
                                    Some(_) => popped += 1,
                                    None => std::thread::yield_now(),
                                }
                            }
                            barrier.wait();
                            snaps.push(f.counters().snapshot());
                            barrier.wait();
                        }
                        snaps
                    })
                })
                .collect();
            ranks.into_iter().map(|h| h.join().unwrap()).collect::<Vec<_>>()
        });
        let want = |[puts, gets, notified, amos, flushes]: [u64; 5]| {
            let n = P as u64;
            CounterSnapshot {
                puts: n * (puts + notified),
                bytes_put: n * 8 * (puts + notified),
                gets: n * gets,
                bytes_get: n * 8 * gets,
                amos: n * amos,
                bytes_amo: n * 8 * amos,
                flushes: n * flushes,
                notify_posts: n * notified,
                notify_consumed: n * notified,
                ..CounterSnapshot::default()
            }
        };
        for (phase, counts) in PHASES.into_iter().enumerate() {
            for (r, snaps) in snaps.iter().enumerate() {
                let got = snaps[phase + 1].since(&snaps[phase]);
                assert_eq!(got, want(counts), "phase {phase}, read by rank {r}");
            }
        }
        let total = std::array::from_fn(|i| PHASES[0][i] + PHASES[1][i]);
        assert_eq!(f.counters().snapshot(), want(total), "after the join");
    }
}
