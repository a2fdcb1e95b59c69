//! MPI-3 windows: creation flavours, epoch state and addressing.
//!
//! §2.2 of the paper: four collective creation routines with very different
//! scalability properties, all reproduced here:
//!
//! * [`Win::create`] (*traditional*) — exposes caller-specified sizes at
//!   arbitrary per-rank base addresses, forcing Ω(p) remote-descriptor
//!   storage per process (two allgathers: one for DMAPP descriptors, one
//!   for the intra-node XPMEM information). Discouraged, kept for
//!   backwards compatibility — and for the memory-scaling experiment.
//! * [`Win::allocate`] — library-allocated *symmetric heap*: a leader
//!   proposes an id, every rank tries to claim it, an allreduce checks
//!   success, repeat — O(1) memory, O(log p) time w.h.p.
//! * [`Win::create_dynamic`] — no initial memory; regions attach/detach
//!   locally and remote peers resolve addresses through the one-sided
//!   cached-region-table protocol (see the `dynamic` module).
//! * [`Win::allocate_shared`] — co-located ranks get direct load/store
//!   views (XPMEM), O(1) memory per core.

use crate::error::{FompiError, Result};
use crate::meta::{self, off, WinConfig};
use fompi_fabric::{Endpoint, NotifyRecord, SegKey, Segment};
use fompi_runtime::{CollEngine, Group, RankCtx};
use std::cell::{Cell, RefCell};
use std::collections::{HashMap, VecDeque};
use std::rc::Rc;
use std::sync::Arc;

/// Which creation routine produced the window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WinKind {
    /// MPI_Win_create.
    Create,
    /// MPI_Win_allocate.
    Allocate,
    /// MPI_Win_create_dynamic.
    Dynamic,
    /// MPI_Win_allocate_shared.
    Shared,
}

/// How remote data segments are addressed.
#[derive(Debug, Clone)]
pub(crate) enum KeyTable {
    /// Symmetric id: every rank registered under the same id — O(1).
    Sym(u64),
    /// Per-target descriptor table — Ω(p) (traditional windows).
    Table(Arc<Vec<SegKey>>),
    /// No static data segment (dynamic windows).
    None,
}

/// Per-target displacement units.
#[derive(Debug, Clone)]
pub(crate) enum DispUnits {
    /// All ranks share one unit.
    Uniform(usize),
    /// Per-rank units (traditional windows) — Ω(p).
    PerRank(Arc<Vec<usize>>),
}

impl DispUnits {
    pub(crate) fn of(&self, target: u32) -> usize {
        match self {
            DispUnits::Uniform(u) => *u,
            DispUnits::PerRank(v) => v[target as usize],
        }
    }
}

/// Lock type for passive-target epochs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockType {
    /// MPI_LOCK_SHARED.
    Shared,
    /// MPI_LOCK_EXCLUSIVE.
    Exclusive,
}

/// Current access-epoch state.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum AccessEpoch {
    /// No epoch open.
    None,
    /// Between fences.
    Fence,
    /// PSCW access epoch toward a group.
    Pscw(Group),
    /// Passive target: at least one per-target lock held.
    Lock,
    /// Passive target: global lock_all held.
    LockAll,
}

/// Current exposure-epoch state.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum ExposureEpoch {
    /// Not exposed (passive exposure is implicit and always on).
    None,
    /// Between fences.
    Fence,
    /// PSCW exposure epoch for a group.
    Pscw(Group),
}

#[derive(Debug)]
pub(crate) struct EpochState {
    pub access: AccessEpoch,
    pub exposure: ExposureEpoch,
    /// Passive-target locks currently held, by target.
    pub locks: HashMap<u32, LockType>,
    /// Targets locked with MPI_MODE_NOCHECK (no protocol state to release).
    pub nocheck: std::collections::HashSet<u32>,
    /// The origins a PSCW `start` has not matched yet. Only `start` uses
    /// it; it lives here so that a warm `start` reuses its storage.
    pub unmatched: Vec<u32>,
}

impl EpochState {
    fn new() -> Self {
        Self {
            access: AccessEpoch::None,
            exposure: ExposureEpoch::None,
            locks: HashMap::new(),
            nocheck: std::collections::HashSet::new(),
            unmatched: Vec::new(),
        }
    }
}

/// Immutable window facts shared by all ranks.
pub(crate) struct WinShared {
    pub kind: WinKind,
    pub cfg: WinConfig,
    pub keys: KeyTable,
    pub meta_id: u64,
    pub disp: DispUnits,
    /// Per-rank window sizes in bytes (traditional windows only; other
    /// kinds carry [`SizeInfo::Uniform`] or none).
    pub sizes: SizeInfo,
    /// Master rank hosting the global lock.
    pub master: u32,
    pub p: usize,
}

/// Window sizes, as stored per creation kind.
#[derive(Debug, Clone)]
pub enum SizeInfo {
    /// Same size everywhere.
    Uniform(usize),
    /// Per-rank sizes (Ω(p), traditional windows).
    PerRank(Arc<Vec<usize>>),
    /// No static size (dynamic windows).
    None,
}

impl SizeInfo {
    /// Size of `target`'s window, if statically known.
    pub fn of(&self, target: u32) -> Option<usize> {
        match self {
            SizeInfo::Uniform(s) => Some(*s),
            SizeInfo::PerRank(v) => Some(v[target as usize]),
            SizeInfo::None => None,
        }
    }
}

/// A dynamic-window region attached locally.
#[derive(Debug, Clone)]
pub(crate) struct LocalRegion {
    pub addr: u64,
    pub size: usize,
    pub key: SegKey,
    pub seg: Arc<Segment>,
}

/// Cached remote region table for dynamic windows.
#[derive(Debug, Clone, Default)]
pub(crate) struct RemoteRegions {
    pub id: u64,
    pub regions: Vec<(u64, u64, u64)>, // (addr, size, key_id)
}

/// An MPI-3 window (one rank's handle).
///
/// All creation functions are collective over the universe. The handle is
/// rank-local (not `Send`); protocol state lives in the shared fabric
/// segments.
pub struct Win {
    pub(crate) ep: Rc<Endpoint>,
    pub(crate) coll: Arc<CollEngine>,
    pub(crate) shared: Arc<WinShared>,
    pub(crate) my_data: Option<Arc<Segment>>,
    pub(crate) my_meta: Arc<Segment>,
    pub(crate) state: RefCell<EpochState>,
    /// Count of exclusive locks currently held by this origin (the paper's
    /// "already holds an exclusive lock" fast path, §2.3).
    pub(crate) held_excl: Cell<u32>,
    /// Dynamic windows: locally attached regions.
    pub(crate) dyn_local: RefCell<Vec<LocalRegion>>,
    /// Dynamic windows: next local virtual address.
    pub(crate) dyn_next_addr: Cell<u64>,
    /// Dynamic windows: cache of remote region tables.
    pub(crate) dyn_cache: RefCell<HashMap<u32, RemoteRegions>>,
    /// Notified access: records popped from this rank's notification ring
    /// while matching a different `(source, tag)` — re-offered, in arrival
    /// order, to later waits (see [`crate::sync::notify`]).
    pub(crate) notify_stash: RefCell<VecDeque<NotifyRecord>>,
}

impl Win {
    // ------------------------------------------------------------ creation

    /// MPI_Win_allocate: symmetric-heap allocation, O(1) metadata. The
    /// window memory starts zeroed.
    pub fn allocate(ctx: &RankCtx, size: usize, disp_unit: usize) -> Result<Win> {
        Self::allocate_cfg(ctx, size, disp_unit, WinConfig::default())
    }

    /// [`Win::allocate`] with explicit tuning knobs.
    pub fn allocate_cfg(
        ctx: &RankCtx,
        size: usize,
        disp_unit: usize,
        cfg: WinConfig,
    ) -> Result<Win> {
        Self::allocate_as(ctx, WinKind::Allocate, size, disp_unit, cfg)
    }

    /// A window of `kind` whose memory every rank registers under one
    /// symmetric id.
    fn allocate_as(
        ctx: &RankCtx,
        kind: WinKind,
        size: usize,
        disp_unit: usize,
        cfg: WinConfig,
    ) -> Result<Win> {
        let seg = Segment::new(size.max(8));
        let data_id = Self::claim_symmetric(ctx, seg.clone())?;
        let (keys, disp) = (KeyTable::Sym(data_id), DispUnits::Uniform(disp_unit));
        Self::finish(ctx, kind, cfg, keys, Some(seg), disp, SizeInfo::Uniform(size))
    }

    /// MPI_Win_create: traditional window over "existing" memory of
    /// caller-chosen size; requires Ω(p) descriptor storage (two
    /// allgathers). Strongly discouraged by the paper; included for
    /// completeness and the scalability comparison.
    pub fn create(ctx: &RankCtx, size: usize, disp_unit: usize) -> Result<Win> {
        Self::create_cfg(ctx, size, disp_unit, WinConfig::default())
    }

    /// [`Win::create`] with explicit tuning knobs.
    pub fn create_cfg(ctx: &RankCtx, size: usize, disp_unit: usize, cfg: WinConfig) -> Result<Win> {
        let seg = Segment::new(size.max(8));
        let key = ctx.fabric().register(ctx.rank(), seg.clone());
        // First allgather: DMAPP descriptors of every rank (the XPMEM
        // allgather among node-local ranks is subsumed: the key table
        // serves both transports here).
        let mut payload = Vec::with_capacity(24);
        payload.extend_from_slice(&(key.rank as u64).to_le_bytes());
        payload.extend_from_slice(&key.id.to_le_bytes());
        payload.extend_from_slice(&(size as u64).to_le_bytes());
        payload.extend_from_slice(&(disp_unit as u64).to_le_bytes());
        let all = ctx.allgather(&payload);
        let mut keys = Vec::with_capacity(all.len());
        let mut sizes = Vec::with_capacity(all.len());
        let mut disps = Vec::with_capacity(all.len());
        for row in &all {
            let rank = u64::from_le_bytes(row[0..8].try_into().unwrap()) as u32;
            let id = u64::from_le_bytes(row[8..16].try_into().unwrap());
            keys.push(SegKey { rank, id });
            sizes.push(u64::from_le_bytes(row[16..24].try_into().unwrap()) as usize);
            disps.push(u64::from_le_bytes(row[24..32].try_into().unwrap()) as usize);
        }
        Self::finish(
            ctx,
            WinKind::Create,
            cfg,
            KeyTable::Table(Arc::new(keys)),
            Some(seg),
            DispUnits::PerRank(Arc::new(disps)),
            SizeInfo::PerRank(Arc::new(sizes)),
        )
    }

    /// MPI_Win_create_dynamic: no initial memory; use
    /// [`Win::attach`]/[`Win::detach`].
    pub fn create_dynamic(ctx: &RankCtx) -> Result<Win> {
        Self::create_dynamic_cfg(ctx, WinConfig::default())
    }

    /// [`Win::create_dynamic`] with explicit tuning knobs.
    pub fn create_dynamic_cfg(ctx: &RankCtx, cfg: WinConfig) -> Result<Win> {
        Self::finish(
            ctx,
            WinKind::Dynamic,
            cfg,
            KeyTable::None,
            None,
            DispUnits::Uniform(1),
            SizeInfo::None,
        )
    }

    /// MPI_Win_allocate_shared: all ranks must be co-located; peers get
    /// direct load/store access via [`Win::shared_query`].
    pub fn allocate_shared(ctx: &RankCtx, size: usize, disp_unit: usize) -> Result<Win> {
        if !ctx.fabric().topology().single_node() {
            return Err(FompiError::NotShareable);
        }
        Self::allocate_as(ctx, WinKind::Shared, size, disp_unit, WinConfig::default())
    }

    /// The symmetric-heap claim loop of §2.2: leader proposes an id,
    /// everyone tries to register under it, an allreduce checks global
    /// success; repeat until all succeeded.
    fn claim_symmetric(ctx: &RankCtx, seg: Arc<Segment>) -> Result<u64> {
        loop {
            let proposal = if ctx.rank() == 0 {
                ctx.fabric().propose_id().to_le_bytes().to_vec()
            } else {
                vec![0u8; 8]
            };
            let id = u64::from_le_bytes(ctx.bcast(0, &proposal).try_into().unwrap());
            let ok = ctx.fabric().register_symmetric(ctx.rank(), id, seg.clone()).is_ok();
            let all_ok = ctx.allreduce_u64(ok as u64, |a, b| a & b);
            if all_ok == 1 {
                return Ok(id);
            }
            if ok {
                ctx.fabric().deregister(SegKey { rank: ctx.rank(), id });
            }
        }
    }

    fn finish(
        ctx: &RankCtx,
        kind: WinKind,
        cfg: WinConfig,
        keys: KeyTable,
        my_data: Option<Arc<Segment>>,
        disp: DispUnits,
        sizes: SizeInfo,
    ) -> Result<Win> {
        // Meta segment: symmetric id so peers can address protocol state
        // with O(1) storage regardless of window kind.
        let meta = Segment::new(cfg.meta_bytes());
        Self::init_meta(&meta, &cfg);
        let meta_id = Self::claim_symmetric(ctx, meta.clone())?;
        ctx.ep().charge(ctx.fabric().model().register_ns);
        let shared =
            Arc::new(WinShared { kind, cfg, keys, meta_id, disp, sizes, master: 0, p: ctx.size() });
        let win = Win {
            ep: ctx.ep_rc(),
            coll: ctx.coll_arc(),
            shared,
            my_data,
            my_meta: meta,
            state: RefCell::new(EpochState::new()),
            held_excl: Cell::new(0),
            dyn_local: RefCell::new(Vec::new()),
            dyn_next_addr: Cell::new(DYN_BASE_ADDR),
            dyn_cache: RefCell::new(HashMap::new()),
            notify_stash: RefCell::new(VecDeque::new()),
        };
        // Ensure every rank finished registration before anyone
        // communicates.
        ctx.barrier();
        Ok(win)
    }

    fn init_meta(meta: &Segment, cfg: &WinConfig) {
        // Free list: chain 0 → 1 → ... → n-1 → NIL.
        for i in 0..cfg.pscw_pool {
            let next = if i + 1 < cfg.pscw_pool { (i + 1) as u32 } else { meta::NIL };
            meta.write_u64(cfg.pool_off(i as u32), meta::pack_elem(0, next));
        }
        meta.write_u64(off::FREE_HEAD, meta::pack_head(0, 0));
        meta.write_u64(off::MATCH_HEAD, meta::pack_head(0, meta::NIL));
        meta.write_u64(off::MCS_TAIL, 0);
        meta.write_u64(off::MCS_FLAG, 0);
        meta.write_u64(off::MCS_NEXT, 0);
    }

    // ---------------------------------------------------------- addressing

    /// Remote descriptor for `target`'s data segment.
    pub(crate) fn data_key(&self, target: u32) -> Result<SegKey> {
        match &self.shared.keys {
            KeyTable::Sym(id) => Ok(SegKey { rank: target, id: *id }),
            KeyTable::Table(t) => Ok(t[target as usize]),
            KeyTable::None => {
                Err(FompiError::InvalidEpoch("dynamic windows address memory by attached address"))
            }
        }
    }

    /// Remote descriptor for `target`'s meta segment.
    pub(crate) fn meta_key(&self, target: u32) -> SegKey {
        SegKey { rank: target, id: self.shared.meta_id }
    }

    /// Resolve `(target, disp, len)` to a fabric location, honouring the
    /// target's displacement unit (and, for dynamic windows, the cached
    /// region-table protocol).
    pub(crate) fn target_span(
        &self,
        target: u32,
        target_disp: usize,
        len: usize,
    ) -> Result<(SegKey, usize)> {
        if self.shared.kind == WinKind::Dynamic {
            return self.dyn_resolve(target, target_disp as u64, len);
        }
        let off = target_disp * self.shared.disp.of(target);
        if let Some(sz) = self.shared.sizes.of(target) {
            if off + len > sz {
                return Err(FompiError::OutOfBounds { target, offset: off, len, win_size: sz });
            }
        }
        Ok((self.data_key(target)?, off))
    }

    // ------------------------------------------------------------- queries

    /// The window kind.
    pub fn kind(&self) -> WinKind {
        self.shared.kind
    }

    /// Number of ranks in the window.
    pub fn size(&self) -> usize {
        self.shared.p
    }

    /// This rank.
    pub fn rank(&self) -> u32 {
        self.ep.rank()
    }

    /// Local window size in bytes (0 for dynamic windows).
    pub fn local_size(&self) -> usize {
        self.my_data.as_ref().map(|s| s.len()).unwrap_or(0)
    }

    /// Read the local window memory (what a load from the window buffer
    /// would return). Public model: the window owns its memory.
    pub fn read_local(&self, off: usize, dst: &mut [u8]) {
        self.my_data.as_ref().expect("window has no static local memory").read(off, dst);
        if self.rc_on() {
            self.rc_local(off, dst.len(), false);
        }
    }

    /// Write the local window memory (a local store).
    pub fn write_local(&self, off: usize, src: &[u8]) {
        self.my_data.as_ref().expect("window has no static local memory").write(off, src);
        if self.rc_on() {
            self.rc_local(off, src.len(), true);
        }
    }

    /// Direct load/store view of `rank`'s shared-window segment
    /// (MPI_Win_shared_query). Transient XPMEM attach failures
    /// (`SegmentBusy` under an armed fault plan) are retried with bounded
    /// backoff — the attach is purely local, so no RMA ordering guarantee
    /// constrains the retry.
    pub fn shared_query(&self, rank: u32) -> Result<fompi_fabric::xpmem::MappedView> {
        if self.shared.kind != WinKind::Shared {
            return Err(FompiError::InvalidEpoch("shared_query needs a shared window"));
        }
        let key = self.data_key(rank)?;
        self.retry_transient(|| {
            fompi_fabric::xpmem::MappedView::attach(self.ep.fabric(), self.ep.rank(), key)
        })
    }

    /// This window's displacement unit toward `target`.
    pub fn disp_unit(&self, target: u32) -> usize {
        self.shared.disp.of(target)
    }

    /// Statically-known window sizes (per creation kind).
    pub fn size_info(&self) -> &SizeInfo {
        &self.shared.sizes
    }

    /// The window's tuning configuration.
    pub fn config(&self) -> &WinConfig {
        &self.shared.cfg
    }

    /// Per-rank metadata bytes this window consumes — the paper's central
    /// scalability metric (§2.2): Ω(p) for traditional windows, O(1)
    /// otherwise.
    pub fn metadata_bytes(&self) -> usize {
        let base = self.shared.cfg.meta_bytes();
        match self.shared.kind {
            // key (12 B) + size (8 B) + disp unit (8 B) per target.
            WinKind::Create => base + self.shared.p * 28,
            WinKind::Allocate | WinKind::Shared => base + 24,
            WinKind::Dynamic => {
                base + self
                    .dyn_cache
                    .borrow()
                    .values()
                    .map(|c| 16 + c.regions.len() * 24)
                    .sum::<usize>()
            }
        }
    }

    /// This rank's protocol metadata words that are not in their rest
    /// state, as `(word, got, want)`. The protocols are bufferless (§2.3):
    /// once every rank has closed its epochs — after a barrier — the
    /// completion counter, the lock words, the accumulate lock and (at the
    /// master) the global lock and MCS tail are zero, and the PSCW match
    /// list is empty with every pool element back on the free list.
    /// Anything left is a lost release, a leaked pool element or an
    /// unconsumed completion.
    pub fn metadata_residue(&self) -> Vec<(&'static str, u64, u64)> {
        let (seg, cfg) = (&self.my_meta, &self.shared.cfg);
        let mut residue = Vec::new();
        let mut check = |word, got, want| {
            if got != want {
                residue.push((word, got, want));
            }
        };
        check("COMPLETION", seg.read_u64(off::COMPLETION), 0);
        check("LOCAL_LOCK", seg.read_u64(off::LOCAL_LOCK), 0);
        check("ACC_LOCK", seg.read_u64(off::ACC_LOCK), 0);
        if self.rank() == self.shared.master {
            check("GLOBAL_LOCK", seg.read_u64(off::GLOBAL_LOCK), 0);
            check("MCS_TAIL", seg.read_u64(off::MCS_TAIL), 0);
        }
        let (_, idx) = meta::unpack_head(seg.read_u64(off::MATCH_HEAD));
        check("MATCH_HEAD index", idx as u64, meta::NIL as u64);
        // Walk the Figure-2c free list: all pool elements must be home.
        let (_, mut cur) = meta::unpack_head(seg.read_u64(off::FREE_HEAD));
        let mut n = 0;
        while cur != meta::NIL && n <= cfg.pscw_pool {
            n += 1;
            cur = meta::unpack_elem(seg.read_u64(cfg.pool_off(cur))).1;
        }
        check("free-list length", n as u64, cfg.pscw_pool as u64);
        residue
    }

    /// Free the window (collective). Consumes the handle. Notifications
    /// still queued for this rank — stashed or in the ring — are dropped
    /// and counted ([`fompi_fabric::Counters::notify_dropped`]): like
    /// `MPI_Win_free` with unmatched foMPI-NA notifications, the records
    /// do not outlive the window they synchronised. Returns the
    /// [`Win::metadata_residue`] read right after the collective's first
    /// barrier, the one point where every rank's epochs are known closed.
    pub fn free(self, ctx: &RankCtx) -> Vec<(&'static str, u64, u64)> {
        // Racecheck: probe epoch quiescence before the barrier (the state
        // is per-rank), but mark the id freed only after it — peers may
        // legitimately still be recording their last pre-free accesses.
        let rc_clean = if self.rc_on() { Some(self.rc_free_clean()) } else { None };
        ctx.barrier();
        let residue = self.metadata_residue();
        if let Some(clean) = rc_clean {
            self.rc_freed(clean);
        }
        let stashed = self.notify_stash.borrow_mut().drain(..).count() as u64;
        if stashed > 0 {
            self.trace_scope();
            let t0 = self.ep.clock().now();
            for _ in 0..stashed {
                self.ep.trace_sync(fompi_fabric::telemetry::EventKind::NotifyDrop, self.rank(), t0);
            }
            ctx.fabric()
                .counters()
                .notify_dropped
                .fetch_add(stashed, std::sync::atomic::Ordering::Relaxed);
        }
        self.ep.notify_drop_all();
        if let Ok(key) = self.data_key(self.rank()) {
            ctx.fabric().deregister(key);
        }
        for r in self.dyn_local.borrow().iter() {
            ctx.fabric().deregister(r.key);
        }
        ctx.fabric().deregister(SegKey { rank: self.rank(), id: self.shared.meta_id });
        ctx.barrier();
        residue
    }

    // ----------------------------------------------------------- telemetry

    /// Attribute subsequent endpoint telemetry events to this window (the
    /// meta-segment id doubles as a process-unique window id). A plain
    /// `Cell` store — cheap enough to run unconditionally.
    #[inline]
    pub(crate) fn trace_scope(&self) {
        self.ep.set_trace_win(self.shared.meta_id);
    }

    /// This window's id as it appears in telemetry reports and traces.
    pub fn telemetry_id(&self) -> u64 {
        self.shared.meta_id
    }

    /// The fabric endpoint this window issues through: the rank's virtual
    /// clock, time charging and trace hooks. Layers built on top of the
    /// window ops (the `fompi-txn` transaction layer) use it to charge
    /// backoff time and record their own telemetry spans.
    pub fn endpoint(&self) -> &fompi_fabric::Endpoint {
        &self.ep
    }
}

/// Base virtual address for dynamic-window attachments (arbitrary non-zero
/// constant so address 0 stays invalid).
pub(crate) const DYN_BASE_ADDR: u64 = 0x1000_0000;
