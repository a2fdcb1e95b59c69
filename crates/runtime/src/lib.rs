//! # fompi-runtime — ranks, nodes and internal collectives
//!
//! MPI processes are simulated as threads of one OS process sharing a
//! [`fompi_fabric::Fabric`]. A [`Universe`] describes the job (rank count,
//! ranks per node, cost model); [`Universe::run`] spawns one thread per rank
//! and hands each a [`RankCtx`] — the per-rank execution context holding the
//! rank id, its fabric [`Endpoint`] and the collective engine.
//!
//! The collectives here are the *internal* ones an MPI-RMA implementation
//! itself needs (window creation uses two allgathers, allocated windows use
//! an allreduce-driven retry loop, fence needs a barrier — §2.2/§2.3 of the
//! paper). They are implemented as one load/store barrier crossing over
//! shared slots (see [`coll`]), and charged virtual time according to the
//! scalable algorithms the paper assumes: dissemination barrier, Bruck
//! allgather, binomial broadcast, recursive-doubling allreduce — all
//! `O(log p)` rounds.

pub mod coll;
pub mod group;

pub use coll::CollEngine;
pub use group::Group;

use fompi_fabric::rng::splitmix64;
use fompi_fabric::{
    Config, CostModel, Endpoint, Fabric, FaultPlan, McGate, ProfileMode, RacecheckMode,
};
use std::rc::Rc;
use std::sync::Arc;

/// A parallel job description: `p` ranks, `node_size` ranks per simulated
/// node, the fabric cost model, and the [`Config`] its fabric is built
/// from — the environment's, overwritten knob by knob by the builder
/// methods (precedence: builder > environment > default).
pub struct Universe {
    p: usize,
    node_size: usize,
    model: CostModel,
    config: Config,
}

impl Universe {
    /// A job of `p` ranks, 32 per node (the Blue Waters XE6 layout),
    /// configured from the environment ([`Config::from_env`]; a malformed
    /// variable panics naming it). The root seed defaults to `FOMPI_SEED`
    /// (or 1): one value that every randomized component (fault plans,
    /// soak workloads) derives from, so a failure log prints a single
    /// reproducing seed.
    pub fn new(p: usize) -> Self {
        Self::with_config(p, Config::from_env().unwrap_or_else(|e| panic!("{e}")))
    }

    fn with_config(p: usize, config: Config) -> Self {
        Self { p, node_size: 32, model: CostModel::default(), config }
    }

    /// Override ranks per node.
    pub fn node_size(mut self, node_size: usize) -> Self {
        assert!(node_size > 0);
        self.node_size = node_size;
        self
    }

    /// Override the cost model.
    pub fn model(mut self, model: CostModel) -> Self {
        self.model = model;
        self
    }

    /// Force telemetry on with a per-rank event ring of `ring_cap` slots,
    /// regardless of `FOMPI_TELEMETRY`. Inspect via the fabric returned by
    /// [`Universe::launch`] (e.g. `fabric.telemetry().report()` or the
    /// Perfetto exporter).
    pub fn trace(mut self, ring_cap: usize) -> Self {
        self.config.telemetry_ring = Some(ring_cap);
        self
    }

    /// Override the root seed (also the default seed of a fault plan
    /// installed with a zero seed).
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Arm a fault plan, overriding `FOMPI_FAULTS`. A plan with `seed == 0`
    /// inherits a seed derived from the universe's root seed.
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.config.faults = plan;
        self
    }

    /// Arm (or explicitly disarm) issue-side small-op batching for every
    /// endpoint of the job, overriding `FOMPI_BATCH` (see
    /// `fompi_fabric::batch`). Leaving this unset defers to the
    /// environment, which defaults to off.
    pub fn batch(mut self, on: bool) -> Self {
        self.config.batch = on;
        self
    }

    /// Override the per-rank notification-queue depth (records), overriding
    /// `FOMPI_NOTIFY_DEPTH` (see `fompi_fabric::notify`). Leaving this
    /// unset defers to the environment (default 64).
    pub fn notify_depth(mut self, depth: usize) -> Self {
        assert!(depth > 0);
        self.config.notify_depth = depth;
        self
    }

    /// Arm the RMA race checker (`fompi_fabric::shadow`) for every window
    /// of the job, overriding `FOMPI_RACECHECK`. `Report` prints each
    /// violation and keeps going; `Panic` aborts the offending rank thread
    /// on the first one; `Off` forces the checker off regardless of the
    /// environment.
    pub fn racecheck(mut self, mode: RacecheckMode) -> Self {
        self.config.racecheck = mode;
        self
    }

    /// Arm the wall-clock profiler (`fompi_fabric::profile`) for the job,
    /// overriding `FOMPI_PROFILE`. Any mode other than
    /// [`ProfileMode::Off`] also arms the flight recorder, so a crashing
    /// run keeps its last-events black box. Never touches virtual time.
    pub fn profile(mut self, mode: ProfileMode) -> Self {
        self.config.profile = mode;
        self
    }

    /// Arm (or disarm) the metrics plane (`fompi_fabric::metrics`),
    /// overriding `FOMPI_METRICS`. Arming also enables telemetry
    /// aggregates — the registry snapshots them. Inspect via
    /// `fompi_fabric::metrics_snapshot` on the fabric returned by
    /// [`Universe::launch`].
    pub fn metrics(mut self, on: bool) -> Self {
        self.config.metrics = on;
        self
    }

    /// Install a model-checker scheduling gate (`fompi_fabric::mc`) for
    /// the job: every endpoint serializes its shared-state operations
    /// through it and the collective engine swaps its real barriers for
    /// the gate's collective. Used by `fompi-mc`; regular runs never set
    /// this.
    pub fn mc_gate(mut self, gate: Arc<dyn McGate>) -> Self {
        self.config.mc = Some(gate);
        self
    }

    /// The root seed in force.
    pub fn root_seed(&self) -> u64 {
        self.config.seed
    }

    /// Number of ranks.
    pub fn size(&self) -> usize {
        self.p
    }

    /// Spawn one thread per rank, run `f` on each, and return the per-rank
    /// results in rank order together with the fabric (for counter
    /// inspection).
    pub fn launch<T, F>(&self, f: F) -> (Vec<T>, Arc<Fabric>)
    where
        T: Send,
        F: Fn(&mut RankCtx) -> T + Send + Sync,
    {
        let mut config = self.config.clone();
        // A plan that names no seed runs at one derived from the root seed.
        if config.faults.seed == 0 {
            let seed = splitmix64(config.seed);
            config.faults.seed = if seed == 0 { 1 } else { seed };
        }
        let fabric = Fabric::with_config(self.p, self.node_size, self.model.clone(), config);
        let coll = Arc::new(CollEngine::new(self.p, fabric.clone()));
        let mut results: Vec<Option<T>> = (0..self.p).map(|_| None).collect();
        let fref = &f;
        std::thread::scope(|s| {
            let handles: Vec<_> = results
                .iter_mut()
                .enumerate()
                .map(|(rank, slot)| {
                    let fabric = fabric.clone();
                    let coll = coll.clone();
                    std::thread::Builder::new()
                        .name(format!("rank-{rank}"))
                        .stack_size(8 << 20)
                        .spawn_scoped(s, move || {
                            let mut ctx = RankCtx::new(rank as u32, fabric, coll);
                            // With the flight recorder armed, a panicking
                            // rank dumps its last-events window before the
                            // unwind propagates — the run's black box.
                            match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                                fref(&mut ctx)
                            })) {
                                Ok(v) => *slot = Some(v),
                                Err(payload) => {
                                    // This rank will never arrive again:
                                    // peers in a collective must not wait.
                                    ctx.coll().abort(ctx.rank());
                                    ctx.ep().flight_dump("rank thread panicked");
                                    std::panic::resume_unwind(payload);
                                }
                            }
                        })
                        .expect("failed to spawn rank thread")
                })
                .collect();
            for h in handles {
                h.join().expect("rank thread panicked");
            }
        });
        (results.into_iter().map(|r| r.unwrap()).collect(), fabric)
    }

    /// [`Universe::launch`] discarding the fabric.
    pub fn run<T, F>(&self, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(&mut RankCtx) -> T + Send + Sync,
    {
        self.launch(f).0
    }
}

/// Per-rank execution context. One per rank thread; not `Send`.
pub struct RankCtx {
    rank: u32,
    size: usize,
    ep: Rc<Endpoint>,
    coll: Arc<CollEngine>,
}

impl RankCtx {
    /// Build the context for `rank`.
    pub fn new(rank: u32, fabric: Arc<Fabric>, coll: Arc<CollEngine>) -> Self {
        let size = fabric.num_ranks();
        let ep = Rc::new(Endpoint::new(fabric, rank));
        Self { rank, size, ep, coll }
    }

    /// This rank's id.
    pub fn rank(&self) -> u32 {
        self.rank
    }

    /// Job size (number of ranks).
    pub fn size(&self) -> usize {
        self.size
    }

    /// The fabric endpoint.
    pub fn ep(&self) -> &Endpoint {
        &self.ep
    }

    /// A shareable handle to the endpoint (windows keep one).
    pub fn ep_rc(&self) -> Rc<Endpoint> {
        self.ep.clone()
    }

    /// The shared fabric.
    pub fn fabric(&self) -> &Arc<Fabric> {
        self.ep.fabric()
    }

    /// Current virtual time (ns).
    pub fn now(&self) -> f64 {
        self.ep.clock().now()
    }

    /// The collective engine.
    pub fn coll(&self) -> &CollEngine {
        &self.coll
    }

    /// Shared handle to the collective engine (windows keep one for fence).
    pub fn coll_arc(&self) -> Arc<CollEngine> {
        self.coll.clone()
    }

    /// Dissemination barrier over all ranks (virtual-time `O(log p)`).
    pub fn barrier(&self) {
        self.coll.barrier(&self.ep);
    }

    /// Allgather: contribute `bytes`, receive every rank's contribution in
    /// rank order. All contributions must have equal length.
    pub fn allgather(&self, bytes: &[u8]) -> Vec<Vec<u8>> {
        self.coll.allgather(&self.ep, bytes)
    }

    /// Allreduce a u64 with a commutative-associative `op`.
    pub fn allreduce_u64(&self, v: u64, op: impl Fn(u64, u64) -> u64 + Copy) -> u64 {
        self.coll.allreduce_u64(&self.ep, v, op)
    }

    /// Broadcast from `root`: root's `bytes` are returned on every rank.
    pub fn bcast(&self, root: u32, bytes: &[u8]) -> Vec<u8> {
        self.coll.bcast(&self.ep, root, bytes)
    }

    /// The group of all ranks.
    pub fn world(&self) -> Group {
        Group::world(self.size)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranks_get_distinct_ids() {
        let ranks = Universe::new(6).node_size(2).run(|ctx| ctx.rank());
        assert_eq!(ranks, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn barrier_equalises_clocks() {
        let times = Universe::new(4).node_size(2).run(|ctx| {
            // Skewed work before the barrier.
            ctx.ep().charge(1000.0 * ctx.rank() as f64);
            ctx.barrier();
            ctx.now()
        });
        let t0 = times[0];
        assert!(times.iter().all(|&t| (t - t0).abs() < 1e-6), "{times:?}");
        // Everyone ends past the slowest rank's pre-barrier time.
        assert!(t0 > 3000.0);
    }

    #[test]
    fn allgather_orders_by_rank() {
        let out = Universe::new(5).node_size(8).run(|ctx| {
            let mine = [ctx.rank() as u8 * 10; 4];
            ctx.allgather(&mine)
        });
        for per_rank in out {
            for (r, v) in per_rank.iter().enumerate() {
                assert_eq!(v, &vec![r as u8 * 10; 4]);
            }
        }
    }

    #[test]
    fn allreduce_sums() {
        let out = Universe::new(8)
            .node_size(4)
            .run(|ctx| ctx.allreduce_u64(ctx.rank() as u64 + 1, |a, b| a + b));
        assert!(out.iter().all(|&v| v == 36));
    }

    #[test]
    fn bcast_from_nonzero_root() {
        let out = Universe::new(4).node_size(4).run(|ctx| {
            let data = if ctx.rank() == 2 { vec![7u8, 8, 9] } else { vec![] };
            ctx.bcast(2, &data)
        });
        assert!(out.iter().all(|v| v == &[7, 8, 9]));
    }

    #[test]
    fn repeated_barriers_preserve_clock_monotonicity() {
        let times = Universe::new(3).node_size(1).run(|ctx| {
            let mut prev = ctx.now();
            for _ in 0..10 {
                ctx.barrier();
                let t = ctx.now();
                assert!(t >= prev);
                prev = t;
            }
            prev
        });
        let t0 = times[0];
        assert!(times.iter().all(|&t| (t - t0).abs() < 1e-6));
    }

    #[test]
    fn fault_plan_inherits_root_seed() {
        let (_out, fabric) =
            Universe::new(2).node_size(1).seed(99).faults(FaultPlan::heavy(0)).launch(|ctx| {
                ctx.barrier();
            });
        let faults = fabric.faults();
        assert!(faults.active());
        assert_eq!(faults.plan().seed, splitmix64(99));
        // An explicit plan seed wins over the root seed.
        let (_out, fabric) =
            Universe::new(2).node_size(1).seed(99).faults(FaultPlan::heavy(7)).launch(|ctx| {
                ctx.barrier();
            });
        assert_eq!(fabric.faults().plan().seed, 7);
    }

    #[test]
    fn batch_builder_arms_every_endpoint() {
        let (on, fabric) =
            Universe::new(3).node_size(1).batch(true).launch(|ctx| ctx.ep().batching());
        assert!(on.iter().all(|&b| b));
        assert!(fabric.batch_default());
        let (off, _) = Universe::new(3).node_size(1).batch(false).launch(|ctx| ctx.ep().batching());
        assert!(off.iter().all(|&b| !b));
    }

    #[test]
    fn notify_depth_builder_resizes_rings() {
        let (_out, fabric) = Universe::new(2).node_size(1).notify_depth(8).launch(|ctx| {
            ctx.barrier();
        });
        assert_eq!(fabric.notify().queue(0).capacity(), 8);
        assert_eq!(fabric.notify().depth(), 8);
    }

    #[test]
    fn profile_builder_arms_profiler_and_flight() {
        let (_out, fabric) =
            Universe::new(2).node_size(1).profile(ProfileMode::Full).launch(|ctx| {
                ctx.ep().put(ctx.fabric().register(0, fompi_fabric::Segment::new(64)), 0, &[1u8; 8])
            });
        assert_eq!(fabric.profiler().mode(), ProfileMode::Full);
        assert!(fabric.telemetry().flight_enabled(), "profiling arms the flight recorder");
        assert!(fabric.profiler().total_count() > 0, "full mode times every op");
    }

    #[test]
    fn metrics_builder_enables_telemetry_and_snapshots() {
        let (_out, fabric) = Universe::new(2).node_size(1).metrics(true).launch(|ctx| {
            ctx.barrier();
        });
        assert!(fabric.telemetry().enabled(), "metrics ride the telemetry aggregates");
        let snap = fompi_fabric::metrics_snapshot(&fabric);
        assert!(snap.to_prometheus().contains("fompi_ranks 2"));
    }

    /// Precedence, knob by knob: the builder overwrites what the
    /// environment (here a stand-in variable source) asked for, and a
    /// silent builder leaves it in force.
    #[test]
    fn builder_beats_environment_beats_default() {
        let env = || {
            Config::from_vars(|var| match var {
                "FOMPI_BATCH" => Some("on".to_string()),
                _ => None,
            })
            .unwrap()
        };
        let launch = |u: Universe| u.node_size(1).launch(|ctx| ctx.ep().batching());
        let (batching, fabric) = launch(Universe::with_config(2, env()));
        assert_eq!(batching, [true, true], "builder silent: the environment's batch=on");
        assert!(fabric.batch_default());
        let (batching, fabric) = launch(Universe::with_config(2, env()).batch(false));
        assert_eq!(batching, [false, false], "the builder's batch(false) wins");
        assert!(!fabric.batch_default());
    }

    #[test]
    fn racecheck_builder_arms_fabric() {
        use fompi_fabric::RacecheckMode;
        let (_out, fabric) = Universe::new(2)
            .node_size(1)
            .racecheck(RacecheckMode::Report)
            .launch(|ctx| ctx.barrier());
        assert!(fabric.shadow().active());
        assert_eq!(fabric.shadow().mode(), RacecheckMode::Report);
        let (_out, fabric) =
            Universe::new(2).node_size(1).racecheck(RacecheckMode::Off).launch(|ctx| ctx.barrier());
        assert!(!fabric.shadow().active());
    }

    /// A rank that dies must not leave its peers asleep in a collective:
    /// `launch` has to come back with the panic, promptly.
    #[test]
    fn panicking_rank_does_not_hang_its_peers() {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let run = std::panic::catch_unwind(|| {
                Universe::new(2).node_size(1).run(|ctx| {
                    if ctx.rank() == 1 {
                        panic!("rank 1 dies before the barrier");
                    }
                    ctx.barrier();
                })
            });
            tx.send(run.is_err()).ok();
        });
        let panicked = rx.recv_timeout(std::time::Duration::from_secs(1));
        assert_eq!(panicked, Ok(true), "launch must return the panic within 1 s");
    }

    #[test]
    fn barrier_cost_scales_logarithmically() {
        let cost_at = |p: usize| {
            let times = Universe::new(p).node_size(1).run(|ctx| {
                ctx.barrier(); // warm-up alignment
                let t0 = ctx.now();
                ctx.barrier();
                ctx.now() - t0
            });
            times[0]
        };
        let c2 = cost_at(2);
        let c16 = cost_at(16);
        // log2(16)/log2(2) = 4 → cost ratio ≈ 4.
        assert!((c16 / c2 - 4.0).abs() < 0.2, "c2={c2} c16={c16}");
    }
}
