//! `fompi-check`: epoch-aware RMA race and synchronisation-misuse detector.
//!
//! The MPI-3 RMA memory model (§4.4 of the one-sided paper, MPI-3.0 §11.7)
//! declares *conflicting accesses inside one epoch* erroneous: two accesses
//! to overlapping bytes of a window, at least one of which writes, must be
//! separated by a synchronisation edge (fence round, PSCW post/wait,
//! lock hand-off, flush for same-origin ordering). Nothing at runtime
//! enforces this — the paper's protocols silently corrupt data instead.
//! This module is the dynamic checker: the window layer reports every
//! remote put/get/accumulate and every local load/store exposure, the sync
//! layer reports every epoch transition, and the checker classifies
//! overlapping shadow intervals as happens-before-ordered or conflicting.
//!
//! # Epoch clocks
//!
//! For every (window, target-rank) pair the checker keeps a *generation*
//! `gen`: an epoch id for the target's window memory. Two overlapping
//! accesses conflict only if they were recorded under the same generation;
//! any sync edge that orders "everything before" against "everything
//! after" bumps it:
//!
//! - `fence`: collective — every origin folds `round << 32` in with a
//!   max, so all ranks of one fence round agree on the new generation
//!   without masking conflicts *within* the round,
//! - `post` / `wait` / successful `test` (PSCW, target side),
//! - `unlock` / `unlock_all` / MCS hand-off (releasing a lock orders the
//!   session against the *next* acquirer),
//! - `win_sync`, and consuming a notification (`signal_wait`,
//!   `wait_notify` — the notified-access ordering guarantee).
//!
//! Same-origin ordering is finer: a rank's own put → flush → get to one
//! target is legal even inside one epoch, so each (origin, target) pair
//! also carries a *phase* bumped by flush/flush_local/complete. Two
//! same-origin accesses in the same generation are ordered iff their
//! phases differ (or both are accumulates — MPI orders same-origin
//! accumulates by default).
//!
//! Passive-target epochs sample the generation at *lock acquisition*, not
//! at each access: two shared-lock sessions that overlap in real time hold
//! the same generation and their conflicting accesses are flagged, while
//! a release + later acquire pair is ordered by the unlock bump.
//!
//! # What the checker can and cannot prove
//!
//! Detection is per-interleaving: it flags conflicts the *observed*
//! schedule actually exposed in a shared epoch, like ThreadSanitizer. A
//! clean run is evidence, not proof; a flagged run is always a real
//! memory-model violation (no false positives for programs that only use
//! the documented sync API). The checker never charges virtual time and
//! never draws randomness, so enabling it does not perturb the simulated
//! schedule or the byte-determinism gates.
//!
//! Gating follows [`crate::faults`]: `FOMPI_RACECHECK=report|panic|off`,
//! and the disabled hot path is a bit of the endpoint's own
//! [`crate::Hooks`] byte, fixed at launch.

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::shim::Mutex;

/// Checker mode, parsed from `FOMPI_RACECHECK`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RacecheckMode {
    /// Disabled (default): nothing recorded.
    Off,
    /// Record and report violations (stderr + telemetry + counters).
    Report,
    /// As `Report`, then panic on the first violation.
    Panic,
}

impl RacecheckMode {
    /// Parse a `FOMPI_RACECHECK` value: `off` and `0` disable; `report`
    /// (or `1`, `on`) and `panic` enable. `Err` says what was expected.
    pub fn parse(s: &str) -> Result<RacecheckMode, &'static str> {
        match s.trim().to_ascii_lowercase().as_str() {
            "" | "off" | "0" => Ok(RacecheckMode::Off),
            "report" | "1" | "on" => Ok(RacecheckMode::Report),
            "panic" => Ok(RacecheckMode::Panic),
            _ => Err("expected report, panic or off"),
        }
    }
}

/// Accumulate-op tag for [`AccessKind::Acc`] marking `MPI_NO_OP`
/// (`get_accumulate`'s atomic read), which may overlap any other
/// accumulate per MPI-3.0 §11.7.1.
pub const ACC_NOOP: u16 = u16::MAX;

/// What an access did to the window bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// Remote write (put, notified put, batched put burst).
    Put,
    /// Remote read (get, notified get).
    Get,
    /// Accumulate-family op; the tag identifies the reduction op so
    /// same-op overlap can be permitted (MPI-3.0 §11.7.1). [`ACC_NOOP`]
    /// marks the atomic-read carve-out.
    Acc(u16),
    /// Local load from the rank's own window memory.
    LocalRead,
    /// Local store to the rank's own window memory.
    LocalWrite,
}

impl AccessKind {
    /// Does this access modify window bytes? (Public for the model
    /// checker's conflict relation — see [`kinds_commute`].)
    pub fn writes(self) -> bool {
        match self {
            AccessKind::Put | AccessKind::LocalWrite => true,
            AccessKind::Acc(tag) => tag != ACC_NOOP,
            AccessKind::Get | AccessKind::LocalRead => false,
        }
    }

    fn is_local(self) -> bool {
        matches!(self, AccessKind::LocalRead | AccessKind::LocalWrite)
    }

    fn is_acc(self) -> bool {
        matches!(self, AccessKind::Acc(_))
    }

    /// Stable lower-case name for diagnostics.
    pub fn name(self) -> &'static str {
        match self {
            AccessKind::Put => "put",
            AccessKind::Get => "get",
            AccessKind::Acc(ACC_NOOP) => "acc(no_op)",
            AccessKind::Acc(_) => "acc",
            AccessKind::LocalRead => "local-read",
            AccessKind::LocalWrite => "local-write",
        }
    }
}

/// Passive-target lock held by the origin when the access was issued.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockCtx {
    /// No passive-target lock (fence/PSCW epoch).
    NoLock,
    /// `MPI_LOCK_SHARED` (or `lock_all`).
    Shared,
    /// `MPI_LOCK_EXCLUSIVE`.
    Exclusive,
}

impl LockCtx {
    fn name(self) -> &'static str {
        match self {
            LockCtx::NoLock => "no-lock",
            LockCtx::Shared => "shared-lock",
            LockCtx::Exclusive => "excl-lock",
        }
    }
}

/// One shadow record: who touched which bytes of a target's window, how,
/// and under which epoch clock values.
#[derive(Debug, Clone)]
pub struct AccessRecord {
    /// Issuing rank (for local accesses, the window owner itself).
    pub origin: u32,
    /// Byte interval `[lo, hi)` in the target's window segment.
    pub lo: usize,
    /// Exclusive upper bound of the interval.
    pub hi: usize,
    /// Access class.
    pub kind: AccessKind,
    /// Generation of the (window, target) epoch clock when recorded (for
    /// passive-target sessions: when the lock was acquired).
    pub epoch: u64,
    /// Same-origin flush phase when recorded.
    pub phase: u64,
    /// Lock held by the origin, if any.
    pub lock: LockCtx,
    /// Virtual-time issue span start (origin clock, ns).
    pub t_start: f64,
    /// Virtual-time issue span end.
    pub t_end: f64,
    /// Causal flow id active on the origin when the access was issued
    /// ([`crate::telemetry::NO_FLOW`] when none) — lets a race report
    /// point at the exact Perfetto arcs the two accesses rode.
    pub flow: u64,
}

impl fmt::Display for AccessRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} by rank {} at [{}, {}) epoch {}.{} phase {} flow {} ({}, t {:.1}..{:.1})",
            self.kind.name(),
            self.origin,
            self.lo,
            self.hi,
            self.epoch >> 32,
            self.epoch & 0xffff_ffff,
            self.phase,
            self.flow,
            self.lock.name(),
            self.t_start,
            self.t_end,
        )
    }
}

/// Violation classes the checker distinguishes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum RaceClass {
    /// Two overlapping writes (put/put) in one epoch.
    PutPut,
    /// Overlapping write and read (put/get) in one epoch — includes the
    /// same-origin "use a get target before flush" shape.
    PutGet,
    /// Accumulate overlapping a non-atomic put/get.
    AccMixed,
    /// Two accumulates with different (non-`MPI_NO_OP`) ops.
    AccOps,
    /// Local load/store conflicting with a remote access (separate
    /// memory model).
    LocalRace,
    /// Conflicting remote accesses where both origins held only shared
    /// locks (exclusive was required).
    LockMode,
    /// Access to a freed window, or `free` with an epoch still open.
    UseAfterFree,
}

impl RaceClass {
    /// Number of distinct classes (size of the counter block).
    pub const COUNT: usize = 7;

    /// All classes, in `index` order.
    pub const ALL: [RaceClass; RaceClass::COUNT] = [
        RaceClass::PutPut,
        RaceClass::PutGet,
        RaceClass::AccMixed,
        RaceClass::AccOps,
        RaceClass::LocalRace,
        RaceClass::LockMode,
        RaceClass::UseAfterFree,
    ];

    /// Dense index for the counter block.
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    /// Stable lower-case name (used in reports and test assertions).
    pub fn name(self) -> &'static str {
        match self {
            RaceClass::PutPut => "put_put",
            RaceClass::PutGet => "put_get",
            RaceClass::AccMixed => "acc_mixed",
            RaceClass::AccOps => "acc_ops",
            RaceClass::LocalRace => "local_race",
            RaceClass::LockMode => "lock_mode",
            RaceClass::UseAfterFree => "use_after_free",
        }
    }
}

/// A detected violation: the two conflicting records plus where they
/// overlap.
#[derive(Debug, Clone)]
pub struct RaceViolation {
    /// Violation class.
    pub class: RaceClass,
    /// Window id (symmetric meta id, as in telemetry events).
    pub win: u64,
    /// Overlap interval `[lo, hi)`.
    pub lo: usize,
    /// Exclusive upper bound of the overlap.
    pub hi: usize,
    /// The earlier-recorded access.
    pub a: AccessRecord,
    /// The later-recorded access (the one that tripped the check).
    pub b: AccessRecord,
}

impl fmt::Display for RaceViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.class == RaceClass::UseAfterFree {
            return write!(
                f,
                "racecheck[{}] win {}: {}; window freed by rank {} at t {:.1}",
                self.class.name(),
                self.win,
                self.b,
                self.a.origin,
                self.a.t_end,
            );
        }
        write!(
            f,
            "racecheck[{}] win {} bytes [{}, {}): {} vs {}",
            self.class.name(),
            self.win,
            self.lo,
            self.hi,
            self.a,
            self.b,
        )
    }
}

/// Per-(window, target-rank) epoch clock and shadow interval list.
#[derive(Debug)]
struct TargetShadow {
    /// Current generation.
    gen: u64,
    /// Per-origin flush phase.
    phases: Vec<u64>,
    /// Per-origin lock-session generation (sampled at acquisition).
    session: Vec<Option<u64>>,
    /// Shadow records of still-conflictable epochs (purged lazily against
    /// the epoch floor, see [`TargetShadow::floor`]).
    records: Vec<AccessRecord>,
}

impl TargetShadow {
    fn new(p: usize) -> TargetShadow {
        TargetShadow { gen: 0, phases: vec![0; p], session: vec![None; p], records: Vec::new() }
    }

    /// Lowest epoch a new record could still be stamped with: the current
    /// generation, or an open session's pinned epoch if older. Records
    /// below the floor can never conflict again and are purged.
    fn floor(&self) -> u64 {
        self.session.iter().flatten().fold(self.gen, |f, &s| f.min(s))
    }

    fn bump(&mut self) {
        self.gen += 1;
    }
}

/// Per-window shadow state.
#[derive(Debug)]
struct WinShadow {
    targets: Vec<TargetShadow>,
    /// Per-origin fence round (folded into generations as `round << 32`).
    rounds: Vec<u64>,
}

impl WinShadow {
    fn new(p: usize) -> WinShadow {
        WinShadow { targets: (0..p).map(|_| TargetShadow::new(p)).collect(), rounds: vec![0; p] }
    }
}

/// Retain at most this many full violation records (counters keep exact
/// totals past the cap).
const REPORT_CAP: usize = 1024;

/// The checker hub: one per [`crate::Fabric`], shared by all rank threads.
#[derive(Debug)]
pub struct Shadow {
    /// The mode the checker was built in; never changes.
    mode: RacecheckMode,
    /// World size.
    p: usize,
    /// Per-window shadow maps and epoch clocks.
    windows: Mutex<HashMap<u64, WinShadow>>,
    /// Freed window ids → (freeing rank, free time).
    freed: Mutex<HashMap<u64, (u32, f64)>>,
    /// Per-class violation counters.
    flagged: [AtomicU64; RaceClass::COUNT],
    /// Total shadow records inserted.
    tracked: AtomicU64,
    /// Retained violations (capped at [`REPORT_CAP`]).
    reports: Mutex<Vec<RaceViolation>>,
    /// Stderr dedup: identity keys of violations already printed (see
    /// [`RaceViolation::dedup_key`]). Counters and retained reports stay
    /// exact; only the per-line output collapses.
    printed: Mutex<HashSet<DedupKey>>,
    /// Lines suppressed by the dedup (summarised by [`Shadow::report`]).
    suppressed: AtomicU64,
}

/// Identity of a violation for stderr dedup: class, window, overlap
/// range, both origins, and the tripping access's epoch — a hot loop
/// re-flagging the same pair floods one key, a new epoch (or a genuinely
/// different pair) prints again.
type DedupKey = (RaceClass, u64, usize, usize, u32, u32, u64);

impl RaceViolation {
    fn dedup_key(&self) -> DedupKey {
        (self.class, self.win, self.lo, self.hi, self.a.origin, self.b.origin, self.b.epoch)
    }
}

impl Shadow {
    /// Hub for `p` ranks in `mode`.
    pub fn new(p: usize, mode: RacecheckMode) -> Shadow {
        Shadow {
            mode,
            p,
            windows: Mutex::new(HashMap::new()),
            freed: Mutex::new(HashMap::new()),
            flagged: Default::default(),
            tracked: AtomicU64::new(0),
            reports: Mutex::new(Vec::new()),
            printed: Mutex::new(HashSet::new()),
            suppressed: AtomicU64::new(0),
        }
    }

    /// Is the checker recording?
    #[inline]
    pub fn active(&self) -> bool {
        self.mode != RacecheckMode::Off
    }

    /// The mode in force.
    pub fn mode(&self) -> RacecheckMode {
        self.mode
    }

    // --------------------------------------------------------- recording

    /// Record a remote access by `origin` to bytes `[lo, hi)` of
    /// `target`'s memory in window `win`; returns any violations the
    /// record exposed (already counted, retained, and — in report mode —
    /// printed). `t_start..t_end` is the op's virtual issue span; `flow`
    /// is the origin's causal flow id at issue time
    /// ([`crate::telemetry::NO_FLOW`] when none).
    #[allow(clippy::too_many_arguments)]
    pub fn record_remote(
        &self,
        win: u64,
        target: u32,
        origin: u32,
        lo: usize,
        hi: usize,
        kind: AccessKind,
        lock: LockCtx,
        t_start: f64,
        t_end: f64,
        flow: u64,
    ) -> Vec<RaceViolation> {
        self.record(
            win,
            target,
            AccessRecord { origin, lo, hi, kind, epoch: 0, phase: 0, lock, t_start, t_end, flow },
        )
    }

    /// Record a local load/store by `rank` on its own window memory.
    #[allow(clippy::too_many_arguments)]
    pub fn record_local(
        &self,
        win: u64,
        rank: u32,
        lo: usize,
        hi: usize,
        write: bool,
        t: f64,
        flow: u64,
    ) -> Vec<RaceViolation> {
        let kind = if write { AccessKind::LocalWrite } else { AccessKind::LocalRead };
        self.record(
            win,
            rank,
            AccessRecord {
                origin: rank,
                lo,
                hi,
                kind,
                epoch: 0,
                phase: 0,
                lock: LockCtx::NoLock,
                t_start: t,
                t_end: t,
                flow,
            },
        )
    }

    fn record(&self, win: u64, target: u32, mut rec: AccessRecord) -> Vec<RaceViolation> {
        if rec.lo >= rec.hi {
            return Vec::new();
        }
        if let Some(&(rank, t_free)) = self.freed.lock().get(&win) {
            let v = RaceViolation {
                class: RaceClass::UseAfterFree,
                win,
                lo: rec.lo,
                hi: rec.hi,
                a: AccessRecord {
                    origin: rank,
                    lo: 0,
                    hi: 0,
                    kind: AccessKind::LocalWrite,
                    epoch: u64::MAX,
                    phase: 0,
                    lock: LockCtx::NoLock,
                    t_start: t_free,
                    t_end: t_free,
                    flow: crate::telemetry::NO_FLOW,
                },
                b: rec,
            };
            self.flag(&v);
            return vec![v];
        }
        let mut out = Vec::new();
        let mut map = self.windows.lock();
        let ws = map.entry(win).or_insert_with(|| WinShadow::new(self.p));
        let ts = &mut ws.targets[target as usize];
        let floor = ts.floor();
        ts.records.retain(|r| r.epoch >= floor);
        // Passive-target sessions pin the epoch sampled at lock time so
        // two real-time-overlapping shared sessions share a generation
        // (even across an intervening unlock by one of them).
        rec.epoch = ts.session[rec.origin as usize].unwrap_or(ts.gen);
        rec.phase = ts.phases[rec.origin as usize];
        for old in &ts.records {
            if old.hi > rec.lo && rec.hi > old.lo && old.epoch == rec.epoch {
                if let Some(class) = classify(old, &rec) {
                    out.push(RaceViolation {
                        class,
                        win,
                        lo: old.lo.max(rec.lo),
                        hi: old.hi.min(rec.hi),
                        a: old.clone(),
                        b: rec.clone(),
                    });
                }
            }
        }
        ts.records.push(rec);
        drop(map);
        self.tracked.fetch_add(1, Ordering::Relaxed);
        for v in &out {
            self.flag(v);
        }
        out
    }

    // ------------------------------------------------------- epoch edges

    /// Collective fence by `origin` on `win`: advance every target's
    /// generation to `round << 32` (a max, so conflicts inside one round
    /// stay visible) and bump the origin's phases.
    pub fn fence(&self, win: u64, origin: u32) {
        let mut map = self.windows.lock();
        let ws = map.entry(win).or_insert_with(|| WinShadow::new(self.p));
        ws.rounds[origin as usize] += 1;
        let floor = ws.rounds[origin as usize] << 32;
        for ts in &mut ws.targets {
            ts.gen = ts.gen.max(floor);
            ts.phases[origin as usize] += 1;
        }
    }

    /// A process-wide synchronisation point (a runtime collective:
    /// barrier, allgather, allreduce, bcast). Every rank is inside the
    /// same rendezvous, so in this thread-simulated world all prior
    /// accesses happen-before all later ones — the canonical
    /// `init → barrier → epoch` idiom must not flag. Advances every
    /// tracked target's generation once; the caller guarantees exactly
    /// one call per collective (multiple bumps would split post-sync
    /// records into distinct epochs and hide real conflicts). Open
    /// passive sessions keep their pinned epochs, so a lock held across
    /// a collective still conflicts with its concurrent holders.
    pub fn process_sync(&self) {
        if !self.active() {
            return;
        }
        let mut map = self.windows.lock();
        for ws in map.values_mut() {
            for ts in &mut ws.targets {
                ts.bump();
            }
        }
    }

    /// Same-origin completion edge (flush/flush_local/complete): bump
    /// `origin`'s phase toward `target`, or toward everyone for the
    /// `_all` flavours.
    pub fn flush(&self, win: u64, origin: u32, target: Option<u32>) {
        let mut map = self.windows.lock();
        let ws = map.entry(win).or_insert_with(|| WinShadow::new(self.p));
        match target {
            Some(t) => ws.targets[t as usize].phases[origin as usize] += 1,
            None => {
                for ts in &mut ws.targets {
                    ts.phases[origin as usize] += 1;
                }
            }
        }
    }

    /// Passive-target lock acquired by `origin` on `target` (or on all
    /// targets for `lock_all`/MCS): sample the session generation. Call
    /// *after* the lock protocol succeeds, so a blocked acquirer samples
    /// the releasing holder's bump.
    pub fn lock_acquired(&self, win: u64, origin: u32, target: Option<u32>) {
        let mut map = self.windows.lock();
        let ws = map.entry(win).or_insert_with(|| WinShadow::new(self.p));
        match target {
            Some(t) => {
                let ts = &mut ws.targets[t as usize];
                ts.session[origin as usize] = Some(ts.gen);
            }
            None => {
                for ts in &mut ws.targets {
                    ts.session[origin as usize] = Some(ts.gen);
                }
            }
        }
    }

    /// Lock released by `origin` on `target` (or all): bump the target
    /// generation(s) — ordering the session against the *next* acquirer —
    /// and clear the session. Call *before* the release becomes visible
    /// to waiters.
    pub fn unlock(&self, win: u64, origin: u32, target: Option<u32>) {
        let mut map = self.windows.lock();
        let ws = map.entry(win).or_insert_with(|| WinShadow::new(self.p));
        match target {
            Some(t) => {
                let ts = &mut ws.targets[t as usize];
                ts.bump();
                ts.phases[origin as usize] += 1;
                ts.session[origin as usize] = None;
            }
            None => {
                for ts in &mut ws.targets {
                    ts.bump();
                    ts.phases[origin as usize] += 1;
                    ts.session[origin as usize] = None;
                }
            }
        }
    }

    /// An acquire edge on `rank`'s own window memory: PSCW post/wait,
    /// `win_sync`, or consuming a notification. Accesses recorded after
    /// this are ordered against everything the edge synchronised with.
    pub fn acquire_own(&self, win: u64, rank: u32) {
        let mut map = self.windows.lock();
        let ws = map.entry(win).or_insert_with(|| WinShadow::new(self.p));
        let ts = &mut ws.targets[rank as usize];
        ts.bump();
        // Inside an open session (e.g. a notified consumer under
        // lock_all), later own-rank accesses are ordered by this edge:
        // re-pin the session so they record in the advanced epoch.
        if ts.session[rank as usize].is_some() {
            ts.session[rank as usize] = Some(ts.gen);
        }
    }

    /// `Win::free` by `rank` at virtual time `t`. `clean` is false when
    /// an access/exposure epoch or lock was still open — itself a
    /// violation.
    pub fn window_freed(&self, win: u64, rank: u32, t: f64, clean: bool) -> Vec<RaceViolation> {
        self.windows.lock().remove(&win);
        self.freed.lock().insert(win, (rank, t));
        if clean {
            return Vec::new();
        }
        let rec = AccessRecord {
            origin: rank,
            lo: 0,
            hi: 0,
            kind: AccessKind::LocalWrite,
            epoch: u64::MAX,
            phase: 0,
            lock: LockCtx::NoLock,
            t_start: t,
            t_end: t,
            flow: crate::telemetry::NO_FLOW,
        };
        let v = RaceViolation {
            class: RaceClass::UseAfterFree,
            win,
            lo: 0,
            hi: 0,
            a: rec.clone(),
            b: rec,
        };
        self.flag(&v);
        vec![v]
    }

    // ------------------------------------------------------- aggregation

    fn flag(&self, v: &RaceViolation) {
        self.flagged[v.class.index()].fetch_add(1, Ordering::Relaxed);
        let mut reports = self.reports.lock();
        if reports.len() < REPORT_CAP {
            reports.push(v.clone());
        }
        drop(reports);
        if self.mode() != RacecheckMode::Off {
            // A hot loop re-exposing one conflict would otherwise emit a
            // line per access pair: print each identity once per epoch
            // and summarise the rest (counters above stay exact).
            if self.printed.lock().insert(v.dedup_key()) {
                eprintln!("{v}");
            } else {
                self.suppressed.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Panic in `panic` mode if `viols` is non-empty. Callers emit
    /// telemetry first, then enforce, so the `RaceReport` event is
    /// recorded even on the aborting path.
    pub fn enforce(&self, viols: &[RaceViolation]) {
        if let Some(v) = viols.first() {
            if self.mode() == RacecheckMode::Panic {
                panic!("FOMPI_RACECHECK=panic: {v}");
            }
        }
    }

    /// Violations flagged for `class`.
    pub fn flagged(&self, class: RaceClass) -> u64 {
        self.flagged[class.index()].load(Ordering::Relaxed)
    }

    /// Total violations across all classes.
    pub fn total_flagged(&self) -> u64 {
        RaceClass::ALL.iter().map(|&c| self.flagged(c)).sum()
    }

    /// Total shadow records inserted.
    pub fn tracked(&self) -> u64 {
        self.tracked.load(Ordering::Relaxed)
    }

    /// Retained violation records (first `REPORT_CAP`).
    pub fn violations(&self) -> Vec<RaceViolation> {
        self.reports.lock().clone()
    }

    /// Stderr lines suppressed by the per-epoch dedup (repeats of an
    /// already-printed (class, window, range, ranks, epoch) identity).
    pub fn suppressed(&self) -> u64 {
        self.suppressed.load(Ordering::Relaxed)
    }

    /// Window ids marked freed.
    pub fn freed_windows(&self) -> HashSet<u64> {
        self.freed.lock().keys().copied().collect()
    }

    /// Render the `racecheck` summary counter block (mirrors the
    /// telemetry/fault report style). Empty string when off.
    pub fn report(&self) -> String {
        if self.mode() == RacecheckMode::Off {
            return String::new();
        }
        let mut s = String::new();
        s.push_str("== racecheck ==\n");
        s.push_str(&format!(
            "  mode {:<28} tracked accesses {}\n",
            match self.mode() {
                RacecheckMode::Off => "off",
                RacecheckMode::Report => "report",
                RacecheckMode::Panic => "panic",
            },
            self.tracked()
        ));
        for class in RaceClass::ALL {
            s.push_str(&format!("  {:<32} {}\n", class.name(), self.flagged(class)));
        }
        s.push_str(&format!("  {:<32} {}\n", "total", self.total_flagged()));
        s.push_str(&format!("  {:<32} {}\n", "suppressed duplicate reports", self.suppressed()));
        s
    }
}

/// Kind-level commutation: can two overlapping accesses of these kinds
/// be reordered without changing any stored byte? Two reads commute;
/// same-op (non-`MPI_NO_OP`) accumulates commute by the reduction-op
/// algebra of MPI-3.0 §11.7.1 — the same carve-out `classify` grants
/// them; every other combination involves an order-sensitive write.
/// This is the shared kernel of the race checker's legality rules and
/// the model checker's DPOR conflict relation ([`crate::mc`]); the
/// latter additionally treats *fetching* AMOs as never commuting, a bit
/// shadow records do not carry.
pub fn kinds_commute(a: AccessKind, b: AccessKind) -> bool {
    if !a.writes() && !b.writes() {
        return true;
    }
    matches!((a, b), (AccessKind::Acc(x), AccessKind::Acc(y)) if x == y && x != ACC_NOOP)
}

/// Decide whether two overlapping same-generation records conflict, and
/// under which class. `None` means a happens-before or spec-permitted
/// overlap.
fn classify(a: &AccessRecord, b: &AccessRecord) -> Option<RaceClass> {
    if !a.kind.writes() && !b.kind.writes() {
        return None;
    }
    if a.origin == b.origin {
        if a.phase != b.phase {
            return None; // ordered by flush/complete
        }
        if a.kind.is_local() && b.kind.is_local() {
            return None; // program order
        }
        if a.kind.is_local() && !b.kind.is_local() {
            // One origin's records arrive in program order (`a` is the
            // older). A synchronous local access followed by issuing a
            // remote op is ordered; only the reverse — a local access
            // while an own remote op is still in flight (same phase,
            // no completion edge) — races.
            return None;
        }
        if a.kind.is_acc() && b.kind.is_acc() {
            return None; // same-origin accumulates are MPI-ordered
        }
    }
    if let (AccessKind::Acc(x), AccessKind::Acc(y)) = (a.kind, b.kind) {
        if x == y || x == ACC_NOOP || y == ACC_NOOP {
            return None; // same-op (or MPI_NO_OP) overlap is permitted
        }
        return Some(RaceClass::AccOps);
    }
    if a.kind.is_local() || b.kind.is_local() {
        return Some(RaceClass::LocalRace);
    }
    if a.kind.is_acc() || b.kind.is_acc() {
        return Some(RaceClass::AccMixed);
    }
    if a.origin != b.origin && a.lock == LockCtx::Shared && b.lock == LockCtx::Shared {
        return Some(RaceClass::LockMode);
    }
    if a.kind.writes() && b.kind.writes() {
        Some(RaceClass::PutPut)
    } else {
        Some(RaceClass::PutGet)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hub(p: usize) -> Shadow {
        Shadow::new(p, RacecheckMode::Report)
    }

    fn put(sh: &Shadow, win: u64, target: u32, origin: u32, lo: usize, hi: usize) -> usize {
        sh.record_remote(win, target, origin, lo, hi, AccessKind::Put, LockCtx::NoLock, 0.0, 1.0, 0)
            .len()
    }

    #[test]
    fn class_indices_are_dense() {
        for (i, c) in RaceClass::ALL.iter().enumerate() {
            assert_eq!(c.index(), i);
        }
        assert_eq!(RaceClass::ALL.len(), RaceClass::COUNT);
    }

    #[test]
    fn mode_gates_active_flag() {
        assert!(!Shadow::new(2, RacecheckMode::Off).active());
        assert!(Shadow::new(2, RacecheckMode::Report).active());
        assert!(Shadow::new(2, RacecheckMode::Panic).active());
    }

    #[test]
    fn overlapping_puts_same_epoch_conflict() {
        let sh = hub(4);
        assert_eq!(put(&sh, 1, 2, 0, 0, 8), 0);
        assert_eq!(put(&sh, 1, 2, 1, 4, 12), 1);
        assert_eq!(sh.flagged(RaceClass::PutPut), 1);
        let v = &sh.violations()[0];
        assert_eq!(v.win, 1);
        assert_eq!((v.lo, v.hi), (4, 8));
        assert_eq!((v.a.origin, v.b.origin), (0, 1));
    }

    #[test]
    fn disjoint_intervals_do_not_conflict() {
        let sh = hub(4);
        assert_eq!(put(&sh, 1, 2, 0, 0, 8), 0);
        assert_eq!(put(&sh, 1, 2, 1, 8, 16), 0);
        assert_eq!(sh.total_flagged(), 0);
    }

    #[test]
    fn fence_round_orders_across_epochs_not_within() {
        let sh = hub(2);
        assert_eq!(put(&sh, 1, 1, 0, 0, 8), 0);
        // Both ranks fence: new round, generation floor rises.
        sh.fence(1, 0);
        sh.fence(1, 1);
        assert_eq!(put(&sh, 1, 1, 0, 0, 8), 0); // ordered by the fence
        assert_eq!(put(&sh, 1, 1, 1, 0, 8), 1); // same round — conflicts
        assert_eq!(sh.flagged(RaceClass::PutPut), 1);
    }

    #[test]
    fn same_origin_flush_orders_put_then_get() {
        let sh = hub(2);
        let r = sh.record_remote(1, 1, 0, 0, 8, AccessKind::Put, LockCtx::NoLock, 0.0, 1.0, 0);
        assert!(r.is_empty());
        sh.flush(1, 0, Some(1));
        let r = sh.record_remote(1, 1, 0, 0, 8, AccessKind::Get, LockCtx::NoLock, 2.0, 3.0, 0);
        assert!(r.is_empty());
        // Without the flush the same pair conflicts.
        let r = sh.record_remote(1, 1, 0, 0, 8, AccessKind::Put, LockCtx::NoLock, 4.0, 5.0, 0);
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].class, RaceClass::PutGet);
    }

    #[test]
    fn same_op_accumulates_permitted_mixed_ops_flagged() {
        let sh = hub(3);
        let sum = AccessKind::Acc(0);
        let min = AccessKind::Acc(1);
        let noop = AccessKind::Acc(ACC_NOOP);
        assert!(sh.record_remote(1, 2, 0, 0, 8, sum, LockCtx::Shared, 0.0, 1.0, 0).is_empty());
        assert!(sh.record_remote(1, 2, 1, 0, 8, sum, LockCtx::Shared, 0.0, 1.0, 0).is_empty());
        assert!(sh.record_remote(1, 2, 0, 0, 8, noop, LockCtx::Shared, 1.0, 2.0, 0).is_empty());
        // min(1) conflicts with sum(0); rank 1's own sum is MPI-ordered
        // (same origin) and the no_op read is carved out.
        let r = sh.record_remote(1, 2, 1, 0, 8, min, LockCtx::Shared, 2.0, 3.0, 0);
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].class, RaceClass::AccOps);
        assert_eq!(sh.flagged(RaceClass::AccOps), 1);
    }

    #[test]
    fn acc_vs_put_is_non_atomic_overlap() {
        let sh = hub(2);
        assert!(sh
            .record_remote(1, 1, 0, 0, 8, AccessKind::Acc(0), LockCtx::NoLock, 0.0, 1.0, 0)
            .is_empty());
        let r = sh.record_remote(1, 1, 1, 0, 8, AccessKind::Put, LockCtx::NoLock, 0.5, 1.5, 0);
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].class, RaceClass::AccMixed);
    }

    #[test]
    fn local_store_vs_remote_put_conflicts() {
        let sh = hub(2);
        assert_eq!(put(&sh, 1, 1, 0, 0, 8), 0);
        let r = sh.record_local(1, 1, 4, 8, true, 2.0, 0);
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].class, RaceClass::LocalRace);
        // Local read vs remote put also conflicts (separate model).
        let sh = hub(2);
        assert_eq!(put(&sh, 1, 1, 0, 0, 8), 0);
        let r = sh.record_local(1, 1, 0, 4, false, 2.0, 0);
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn acquire_own_orders_local_reads() {
        let sh = hub(2);
        assert_eq!(put(&sh, 1, 1, 0, 0, 8), 0);
        sh.acquire_own(1, 1);
        assert!(sh.record_local(1, 1, 0, 8, false, 2.0, 0).is_empty());
    }

    #[test]
    fn shared_lock_sessions_overlap_as_lock_mode() {
        let sh = hub(3);
        sh.lock_acquired(1, 0, Some(2));
        sh.lock_acquired(1, 1, Some(2));
        let r = sh.record_remote(1, 2, 0, 0, 8, AccessKind::Put, LockCtx::Shared, 0.0, 1.0, 0);
        assert!(r.is_empty());
        let r = sh.record_remote(1, 2, 1, 0, 8, AccessKind::Put, LockCtx::Shared, 0.5, 1.5, 0);
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].class, RaceClass::LockMode);
    }

    #[test]
    fn unlock_orders_successive_exclusive_sessions() {
        let sh = hub(3);
        sh.lock_acquired(1, 0, Some(2));
        assert!(sh
            .record_remote(1, 2, 0, 0, 8, AccessKind::Put, LockCtx::Exclusive, 0.0, 1.0, 0)
            .is_empty());
        sh.unlock(1, 0, Some(2));
        sh.lock_acquired(1, 1, Some(2));
        assert!(sh
            .record_remote(1, 2, 1, 0, 8, AccessKind::Put, LockCtx::Exclusive, 2.0, 3.0, 0)
            .is_empty());
        assert_eq!(sh.total_flagged(), 0);
    }

    #[test]
    fn access_after_free_is_flagged() {
        let sh = hub(2);
        assert!(sh.window_freed(7, 0, 10.0, true).is_empty());
        let r = sh.record_remote(7, 1, 0, 0, 8, AccessKind::Put, LockCtx::NoLock, 11.0, 12.0, 0);
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].class, RaceClass::UseAfterFree);
        assert!(sh.freed_windows().contains(&7));
    }

    #[test]
    fn unclean_free_is_flagged() {
        let sh = hub(2);
        let r = sh.window_freed(9, 1, 5.0, false);
        assert_eq!(r.len(), 1);
        assert_eq!(sh.flagged(RaceClass::UseAfterFree), 1);
    }

    #[test]
    fn records_purge_on_generation_advance() {
        let sh = hub(2);
        for _ in 0..100 {
            assert_eq!(put(&sh, 1, 1, 0, 0, 8), 0);
            sh.acquire_own(1, 1);
        }
        assert_eq!(sh.total_flagged(), 0);
        assert_eq!(sh.tracked(), 100);
    }

    #[test]
    fn report_block_lists_all_classes() {
        let sh = hub(2);
        put(&sh, 1, 1, 0, 0, 8);
        put(&sh, 1, 1, 1, 0, 8);
        let rep = sh.report();
        assert!(rep.contains("== racecheck =="));
        for class in RaceClass::ALL {
            assert!(rep.contains(class.name()), "missing {}", class.name());
        }
    }

    #[test]
    #[should_panic(expected = "FOMPI_RACECHECK=panic")]
    fn enforce_panics_in_panic_mode() {
        let sh = Shadow::new(2, RacecheckMode::Panic);
        put(&sh, 1, 1, 0, 0, 8);
        let v = sh.record_remote(1, 1, 1, 0, 8, AccessKind::Put, LockCtx::NoLock, 0.0, 1.0, 0);
        sh.enforce(&v);
    }

    #[test]
    fn violation_display_names_both_accesses() {
        let sh = hub(2);
        put(&sh, 3, 1, 0, 0, 8);
        sh.record_remote(3, 1, 1, 4, 12, AccessKind::Put, LockCtx::NoLock, 1.0, 2.0, 0);
        let v = &sh.violations()[0];
        let msg = v.to_string();
        assert!(msg.contains("racecheck[put_put]"));
        assert!(msg.contains("win 3"));
        assert!(msg.contains("bytes [4, 8)"));
        assert!(msg.contains("rank 0"));
        assert!(msg.contains("rank 1"));
        assert!(msg.contains("epoch"));
    }

    #[test]
    fn violation_display_carries_both_flow_ids() {
        let sh = hub(2);
        sh.record_remote(3, 1, 0, 0, 8, AccessKind::Put, LockCtx::NoLock, 0.0, 1.0, 41);
        sh.record_remote(3, 1, 1, 0, 8, AccessKind::Put, LockCtx::NoLock, 1.0, 2.0, 42);
        let v = &sh.violations()[0];
        assert_eq!((v.a.flow, v.b.flow), (41, 42));
        let msg = v.to_string();
        assert!(msg.contains("flow 41"), "{msg}");
        assert!(msg.contains("flow 42"), "{msg}");
    }

    #[test]
    fn repeated_identical_violations_are_suppressed_once_printed() {
        let sh = hub(2);
        // Same (class, win, range, ranks, epoch) identity three times:
        // one printed line, two suppressed; counters stay exact.
        for _ in 0..3 {
            sh.record_remote(5, 1, 1, 0, 8, AccessKind::Put, LockCtx::NoLock, 0.0, 1.0, 0);
        }
        // 1 conflict on the 2nd insert + 2 on the 3rd (against both
        // priors) = 3 flagged, all sharing one dedup identity.
        assert_eq!(sh.flagged(RaceClass::PutPut), 3);
        assert_eq!(sh.suppressed(), 2);
        assert!(sh.report().contains("suppressed duplicate reports     2"), "{}", sh.report());
        // A new epoch re-arms the identity: the next conflict prints.
        sh.acquire_own(5, 1);
        sh.record_remote(5, 1, 0, 0, 8, AccessKind::Put, LockCtx::NoLock, 2.0, 3.0, 0);
        sh.record_remote(5, 1, 1, 0, 8, AccessKind::Put, LockCtx::NoLock, 3.0, 4.0, 0);
        assert_eq!(sh.suppressed(), 2, "fresh-epoch repeat must print, not suppress");
    }

    #[test]
    fn kinds_commute_matches_the_classify_carve_outs() {
        use AccessKind::*;
        assert!(kinds_commute(Get, Get));
        assert!(kinds_commute(Get, LocalRead));
        assert!(kinds_commute(Acc(ACC_NOOP), Get));
        assert!(kinds_commute(Acc(3), Acc(3)));
        assert!(!kinds_commute(Acc(3), Acc(4)));
        assert!(!kinds_commute(Acc(3), Acc(ACC_NOOP)));
        assert!(!kinds_commute(Put, Get));
        assert!(!kinds_commute(Put, Put));
        assert!(!kinds_commute(LocalWrite, Get));
    }
}
