//! # fompi-fabric — a software RDMA fabric
//!
//! This crate is the hardware substitute for the foMPI paper's two low-level
//! transports:
//!
//! * **DMAPP** (Cray Gemini/Aries user-level RDMA): remote put/get and a
//!   small set of 8-byte atomic memory operations (AMOs), each available in
//!   *blocking*, *explicit nonblocking* (returns a [`NbHandle`]) and
//!   *implicit nonblocking* (completed in bulk by [`Endpoint::gsync`])
//!   flavours — exactly the DMAPP completion taxonomy described in §2.1 of
//!   the paper.
//! * **XPMEM** (Linux kernel module mapping remote process memory): ranks in
//!   this simulation are threads of one address space, so an "attached"
//!   segment is simply a direct view ([`xpmem::MappedView`]) on which loads,
//!   stores and CPU atomics operate.
//!
//! Data movement is **real** — a put genuinely deposits bytes into the
//! target's registered segment, AMOs use genuine CPU atomics, so all
//! protocol code built on top is exercised for correctness. Time, however,
//! is **virtual**: every operation advances the origin rank's
//! [`clock::Clock`] according to a calibrated LogGP-style
//! [`cost::CostModel`] whose default constants come from the
//! paper's measured performance functions (Pput = 0.16 ns/B + 1 µs, etc.).
//! Synchronisation words carry companion timestamps ([`clock::StampCell`])
//! so that a rank blocking on a remote event observes
//! `max(own clock, writer clock + latency)` — a conservative Lamport scheme
//! that preserves the *shape* of the paper's latency figures without the
//! actual Cray.
//!
//! ## Memory safety
//!
//! Registered segments are concurrently read and written by many threads
//! with no locks, as RDMA hardware would. [`segment::Segment`] therefore
//! stores bytes in atomic cells (see its module docs for the exact aliasing
//! rules); races yield nondeterministic *values* — an application-level MPI
//! error — but never undefined behaviour.

pub mod amo;
pub mod batch;
pub mod clock;
pub mod config;
pub mod cost;
pub mod counters;
pub mod endpoint;
pub mod error;
pub mod faults;
pub mod mc;
pub mod metrics;
pub mod notify;
pub mod profile;
pub mod rng;
pub mod segment;
pub mod shadow;
pub mod shim;
mod stripes;
pub mod telemetry;
pub mod topology;
mod translate;
pub mod xpmem;

pub use amo::{AmoOp, FetchAmo};
pub use batch::{Burst, BurstKind};
pub use clock::{Clock, StampCell};
pub use config::{Config, ConfigError, Hooks};
pub use cost::{CostModel, Transport};
pub use counters::{CounterSnapshot, Counters};
pub use endpoint::{Endpoint, NbHandle};
pub use error::FabricError;
pub use faults::{FaultKind, FaultParseError, FaultPlan, Faults};
pub use mc::{McGate, McObj, McOp};
pub use metrics::{snapshot as metrics_snapshot, MetricsSnapshot};
pub use notify::{notify_match, NotifyHub, NotifyQueue, NotifyRecord, NOTIFY_ANY};
pub use profile::{ProfileMode, Profiler};
pub use segment::{SegKey, Segment};
pub use shadow::{
    kinds_commute, AccessKind, AccessRecord, LockCtx, RaceClass, RaceViolation, RacecheckMode,
    Shadow, ACC_NOOP,
};
pub use telemetry::Telemetry;
pub use topology::Topology;

use shim::RwLock;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The fabric: the shared "network + NIC registry" that all ranks attach to.
///
/// Holds the table of registered memory segments (the RDMA *memory
/// registration* state), the cost model, the node topology and global
/// operation counters. One `Fabric` is shared (via `Arc`) by every rank of a
/// job; per-rank state lives in [`Endpoint`].
pub struct Fabric {
    model: CostModel,
    topo: Topology,
    hooks: Hooks,
    spins: bool,
    segs: RwLock<HashMap<SegKey, Arc<Segment>>>,
    seg_generation: RegistryGeneration,
    next_id: AtomicU64,
    counters: Counters,
    telemetry: Telemetry,
    faults: Faults,
    batch_default: bool,
    notify: NotifyHub,
    shadow: Shadow,
    profiler: Profiler,
    mc: Option<Arc<dyn mc::McGate>>,
}

/// The registry generation word, alone on its cache lines: every endpoint
/// reads it on every operation, and the only writes are deregistrations, so
/// it must not share a line with anything an operation writes.
#[repr(align(128))]
#[derive(Default)]
struct RegistryGeneration(AtomicU64);

impl Fabric {
    /// Create a fabric for `p` ranks grouped `node_size` per node with the
    /// given cost model, configured from the environment
    /// ([`Config::from_env`]). A malformed variable panics with the
    /// [`ConfigError`] text: a loud start-up error, never a silent default.
    pub fn new(p: usize, node_size: usize, model: CostModel) -> Arc<Self> {
        let config = Config::from_env().unwrap_or_else(|e| panic!("{e}"));
        Self::with_config(p, node_size, model, config)
    }

    /// The constructor: every plane is built in its final state from
    /// `config`, and nothing here is reconfigured afterwards (see
    /// [`config`]). The runtime's `Universe` builder funnels through here.
    pub fn with_config(p: usize, node_size: usize, model: CostModel, config: Config) -> Arc<Self> {
        // The metrics plane needs the telemetry aggregates (histograms
        // feed the quantiles), so arming it also enables them — the event
        // rings stay at whatever capacity was chosen. A profiling run arms
        // the flight recorder: a crash mid-profile should dump its last-N
        // window.
        let telemetry = Telemetry::with_capacity(
            p,
            config.telemetry_ring.is_some() || config.metrics,
            config.profile != ProfileMode::Off,
            config.telemetry_ring.unwrap_or(0),
        );
        let faults = Faults::new(p, config.faults);
        let shadow = Shadow::new(p, config.racecheck);
        // Read here, on the launching thread: a rank thread pinned to one
        // CPU would report 1.
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        Arc::new(Self {
            model,
            topo: Topology::new(p, node_size),
            // Read off the planes as built, so the byte cannot disagree
            // with them.
            hooks: Hooks::PROFILE.when(config.profile != ProfileMode::Off)
                | Hooks::MC.when(config.mc.is_some())
                | Hooks::FAULTS.when(faults.active())
                | Hooks::TRACE.when(telemetry.tracing())
                | Hooks::RACECHECK.when(shadow.active()),
            spins: p <= cores,
            segs: RwLock::new(HashMap::new()),
            seg_generation: RegistryGeneration::default(),
            next_id: AtomicU64::new(1),
            counters: Counters::default(),
            telemetry,
            faults,
            batch_default: config.batch,
            notify: NotifyHub::new(p, config.notify_depth),
            shadow,
            profiler: Profiler::new(config.profile),
            mc: config.mc,
        })
    }

    /// The cost model in force.
    pub fn model(&self) -> &CostModel {
        &self.model
    }

    /// Node topology (rank → node mapping).
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Which diagnostic planes [`Fabric::with_config`] armed. Fixed for the
    /// fabric's life; every [`Endpoint`] keeps a copy and tests that.
    pub fn hooks(&self) -> Hooks {
        self.hooks
    }

    /// Whether a waiting rank may spin before it gives its core away: only
    /// when every rank can own a core (`p <= available_parallelism`, read
    /// once by [`Fabric::with_config`]). With more ranks than cores the
    /// peer a waiter waits for may need that very core, so every wait
    /// yields (or blocks) at once. The one rule of both kinds of wait:
    /// [`Endpoint::idle`] on a rank's own memory and the runtime's
    /// collective rendezvous.
    pub fn spins(&self) -> bool {
        self.spins
    }

    /// Global operation counters (for scalability assertions in tests).
    pub fn counters(&self) -> &Counters {
        &self.counters
    }

    /// The telemetry hub (tracing, histograms, attribution).
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// The fault-injection hub (inert unless a plan is armed).
    pub fn faults(&self) -> &Faults {
        &self.faults
    }

    /// The wall-clock profiler (inert unless [`Config::profile`] arms it,
    /// which also arms the telemetry flight recorder).
    pub fn profiler(&self) -> &Profiler {
        &self.profiler
    }

    /// Whether endpoints start with issue-side batching enabled (see
    /// [`batch`]; [`Config::batch`]). Each [`Endpoint`] snapshots this at
    /// creation and can still toggle itself with
    /// [`Endpoint::set_batching`].
    pub fn batch_default(&self) -> bool {
        self.batch_default
    }

    /// The notification hub: per-rank queues of notified-access records
    /// (see [`notify`]), [`Config::notify_depth`] deep.
    pub fn notify(&self) -> &NotifyHub {
        &self.notify
    }

    /// The racecheck hub (see [`shadow`]): inert unless
    /// [`Config::racecheck`] arms it.
    pub fn shadow(&self) -> &Shadow {
        &self.shadow
    }

    /// The installed model-checker gate ([`Config::mc`]), if any: once
    /// armed, every endpoint serializes its shared-state operations
    /// through it (see [`mc`]).
    pub fn mc_gate(&self) -> Option<&Arc<dyn mc::McGate>> {
        self.mc.as_ref()
    }

    /// Register `seg` for remote access by rank `rank`. Returns the key
    /// remote peers use to address it — the analogue of the DMAPP
    /// registration descriptor.
    pub fn register(&self, rank: u32, seg: Arc<Segment>) -> SegKey {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let key = SegKey { rank, id };
        if self.segs.write().insert(key, seg).is_some() {
            // The id collided with a caller-chosen symmetric id and the
            // mapping was replaced: cached translations of it are stale.
            self.seg_generation.0.fetch_add(1, Ordering::Release);
        }
        key
    }

    /// Fallible registration: like [`Fabric::register`] but subject to
    /// transient [`FabricError::SegmentBusy`] failures under an armed
    /// fault plan — the realistic NIC behaviour the dynamic-window attach
    /// path must retry around (registration resources are finite on real
    /// hardware). Infallible when faults are disabled.
    pub fn try_register(&self, rank: u32, seg: Arc<Segment>) -> Result<SegKey, FabricError> {
        if let Some(retry_after_ns) = self.faults.draw_busy(rank) {
            return Err(FabricError::SegmentBusy { retry_after_ns });
        }
        Ok(self.register(rank, seg))
    }

    /// Register `seg` under a caller-chosen id (the *symmetric heap*
    /// protocol of §2.2: all ranks of a window agree on one id so remote
    /// descriptors need O(1) storage). Fails if the id is taken on this
    /// rank, mirroring the paper's mmap-retry loop.
    pub fn register_symmetric(
        &self,
        rank: u32,
        id: u64,
        seg: Arc<Segment>,
    ) -> Result<SegKey, FabricError> {
        let key = SegKey { rank, id };
        let mut segs = self.segs.write();
        if segs.contains_key(&key) {
            return Err(FabricError::KeyTaken(key));
        }
        segs.insert(key, seg);
        Ok(key)
    }

    /// Draw a fresh id from the global id space (used as the "random
    /// address" proposed by the symmetric-allocation leader).
    pub fn propose_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Deregister a segment. Remote accesses after this fail.
    pub fn deregister(&self, key: SegKey) {
        self.segs.write().remove(&key);
        // After the removal, and Release: an endpoint whose Acquire load in
        // `registry_generation` sees this bump also sees the key gone.
        self.seg_generation.0.fetch_add(1, Ordering::Release);
    }

    /// How many times a key has been removed from (or replaced in) the
    /// registry: the word endpoints validate their cached translations
    /// against (see `translate`). Acquire, pairing with the Release bump
    /// that follows each removal.
    #[inline]
    pub(crate) fn registry_generation(&self) -> u64 {
        self.seg_generation.0.load(Ordering::Acquire)
    }

    /// Resolve a key to its segment in the registry — the NIC translation
    /// table. Endpoints come here once per key and registry generation
    /// (their operations borrow from a rank-private cache afterwards);
    /// other callers are cold (XPMEM attach, model-checker polls, tests).
    pub fn resolve(&self, key: SegKey) -> Result<Arc<Segment>, FabricError> {
        self.segs.read().get(&key).cloned().ok_or(FabricError::UnknownKey(key))
    }

    /// Number of ranks in the job.
    pub fn num_ranks(&self) -> usize {
        self.topo.num_ranks()
    }

    /// Which transport connects `a` and `b`.
    pub fn transport(&self, a: u32, b: u32) -> Transport {
        if self.topo.same_node(a, b) {
            Transport::Xpmem
        } else {
            Transport::Dmapp
        }
    }

    /// How many segments are registered right now, over all ranks: a
    /// window that is never freed shows here.
    pub fn registered_segments(&self) -> usize {
        self.segs.read().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_resolve_roundtrip() {
        let f = Fabric::new(4, 2, CostModel::default());
        let seg = Segment::new(128);
        let key = f.register(0, seg.clone());
        assert_eq!(key.rank, 0);
        let got = f.resolve(key).unwrap();
        assert!(Arc::ptr_eq(&seg, &got));
    }

    #[test]
    fn deregister_invalidates() {
        let f = Fabric::new(2, 1, CostModel::default());
        let key = f.register(1, Segment::new(8));
        f.deregister(key);
        assert!(matches!(f.resolve(key), Err(FabricError::UnknownKey(_))));
    }

    #[test]
    fn symmetric_registration_conflicts() {
        let f = Fabric::new(2, 2, CostModel::default());
        let id = f.propose_id();
        assert!(f.register_symmetric(0, id, Segment::new(8)).is_ok());
        // Same id on the same rank collides (forces the retry loop)...
        assert!(f.register_symmetric(0, id, Segment::new(8)).is_err());
        // ...but the same id on a different rank is the whole point.
        assert!(f.register_symmetric(1, id, Segment::new(8)).is_ok());
    }

    #[test]
    fn try_register_is_infallible_without_faults() {
        let f = Fabric::new(2, 1, CostModel::default());
        for _ in 0..100 {
            assert!(f.try_register(0, Segment::new(8)).is_ok());
        }
    }

    #[test]
    fn try_register_surfaces_transient_busy() {
        let plan = FaultPlan { busy_prob: 1.0, ..FaultPlan::heavy(13) };
        let f = Fabric::with_config(
            2,
            1,
            CostModel::default(),
            Config { faults: plan, ..Config::default() },
        );
        match f.try_register(0, Segment::new(8)) {
            Err(FabricError::SegmentBusy { retry_after_ns }) => assert!(retry_after_ns > 0),
            other => panic!("expected SegmentBusy, got {other:?}"),
        }
    }

    #[test]
    fn transport_selection_follows_nodes() {
        let f = Fabric::new(8, 4, CostModel::default());
        assert_eq!(f.transport(0, 3), Transport::Xpmem);
        assert_eq!(f.transport(0, 4), Transport::Dmapp);
        assert_eq!(f.transport(5, 7), Transport::Xpmem);
    }
}
