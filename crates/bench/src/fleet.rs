//! The fleet: one orchestrator, its agents as functions.
//!
//! An *agent* is an [`Agent`] — `fn(ranks, node_size, seed) -> Arc<Fabric>`
//! — that runs one sweep point on a fresh universe with metrics armed and
//! returns the fabric. [`REGISTRY`] lists every agent with its backend and
//! sweep grid; [`run_point`] runs one point in the caller's process (a
//! panicking agent comes back as an error naming the point) and keeps its
//! [`metrics::snapshot`] and wall time. The `fleet` binary sweeps the
//! registry and writes two renderings of the results:
//!
//! * the summary ([`render_summary`]) — per configuration p50/p99/p999
//!   per op class, plus one fleet-wide distribution per class
//!   (`merge_classes`: histogram merge is associative and commutative,
//!   so the merged tail is the union, not an average of quantiles). It
//!   holds only virtual time from schedule-independent (`stable`)
//!   agents, so it is byte-stable and CI byte-diffs it;
//! * the sweep table ([`render_table`]) — every agent, stable or not,
//!   with its wall-clock time.
//!
//! The workloads are shared with the bins that write a CSV of their own
//! from them: [`scope_workload`] (`scope`), [`contend`] (`txn_ablation`),
//! [`payload`] and the rmc constants (`rmc_ablation`) and [`kv_serve_run`]
//! (`kv_serve`). Agents take `FOMPI_FAULTS` from the environment through
//! `Universe::new` unless they pin faults off, so `fleet --chaos` arms a
//! plan by setting it; fault draws are issue-side seeded, so even the
//! chaos summary is deterministic.

use fompi::{LockType, MpiOp, NumKind, Win};
use fompi_apps::kv::{conservation_check, serve, KvConfig, KvServeStats, KvStore};
use fompi_apps::{dsde, hashtable};
use fompi_fabric::metrics::{self, ClassMetrics, MetricsSnapshot};
use fompi_fabric::rng::{splitmix64, Rng};
use fompi_fabric::telemetry::EventKind;
use fompi_fabric::{Fabric, FaultPlan};
use fompi_msg::channel::{channel, ChannelEnd};
use fompi_pgas::SharedArray;
use fompi_rmc::{fanin, fanout, rpc, FaninEnd, FanoutEnd, LaggingPolicy, RmcConfig, RpcEnd};
use fompi_runtime::Universe;
use fompi_txn::{RetryPolicy, Txn, TxnError, VersionedCell};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One sweep point: `(ranks, node_size, seed)` in, the fabric it ran on
/// out.
pub type Agent = fn(usize, usize, u64) -> Arc<Fabric>;

/// One registered agent and its sweep grid.
pub struct AgentSpec {
    /// Registry name (unique; names the agent in errors and tables).
    pub name: &'static str,
    /// The workload.
    pub run: Agent,
    /// Backend this agent exercises (`rma`, `msg`, `pgas`, `txn`, `rmc`).
    pub backend: &'static str,
    /// Rank counts to sweep. Fixed-config agents list exactly one.
    pub ranks: &'static [usize],
    /// Node sizes (ranks per simulated node) to sweep, crossed with
    /// `ranks`. `1` is all-inter-node; larger values route part of the
    /// traffic through the XPMEM fast path.
    pub node_sizes: &'static [usize],
    /// Whether the agent's metrics are schedule-independent (byte-stable
    /// for a fixed seed). Unstable agents still run in every sweep and
    /// appear in the table, but stay out of the byte-diffed summary.
    pub stable: bool,
    /// Seed every point runs at: [`SEED`] for the swept agents, the seed
    /// its universe is built with for a fixed-config agent.
    pub seed: u64,
}

/// Seed the swept agents run at.
pub const SEED: u64 = 1;

impl AgentSpec {
    /// The name of one sweep point, `name-pP-nN`.
    pub fn label(&self, ranks: usize, node_size: usize) -> String {
        format!("{}-p{ranks}-n{node_size}", self.name)
    }
}

/// Every agent of the fleet. The three neighbor backends sweep rank
/// counts × node sizes (node_size 1 = all-inter-node, 2 = half the ring
/// hops ride the XPMEM fast path); `scope`, `txn-ablate`, `rmc-ablate`
/// and `kv-serve` run one fixed configuration (their grid and seed name
/// it). `kv-serve`, `dsde` and `hashtable` are *unstable*:
/// transactional abort/retry counts and `ANY_SOURCE` drain joins are
/// schedule-dependent, so their metrics feed the table and the chaos
/// sweep but never the summary.
pub const REGISTRY: &[AgentSpec] = &[
    AgentSpec {
        name: "bench-rma",
        run: rma,
        backend: "rma",
        ranks: &[2, 4, 8, 16],
        node_sizes: &[1, 2],
        stable: true,
        seed: SEED,
    },
    AgentSpec {
        name: "bench-msg",
        run: msg,
        backend: "msg",
        ranks: &[2, 4, 8, 16],
        node_sizes: &[1, 2],
        stable: true,
        seed: SEED,
    },
    AgentSpec {
        name: "bench-pgas",
        run: pgas,
        backend: "pgas",
        ranks: &[2, 4, 8, 16],
        node_sizes: &[1, 2],
        stable: true,
        seed: SEED,
    },
    AgentSpec {
        name: "scope",
        run: |_, _, _| scope_workload(scope_universe().metrics(true)).1,
        backend: "rma",
        ranks: &[2],
        node_sizes: &[1],
        stable: true,
        seed: SCOPE_SEED,
    },
    AgentSpec {
        name: "txn-ablate",
        run: |_, _, _| contend(4, true).1,
        backend: "txn",
        ranks: &[2],
        node_sizes: &[1],
        stable: true,
        seed: CONTEND_SEED,
    },
    AgentSpec {
        name: "rmc-ablate",
        run: rmc_mix,
        backend: "rmc",
        ranks: &[4],
        node_sizes: &[1],
        stable: true,
        seed: 11,
    },
    AgentSpec {
        name: "kv-serve",
        run: |_, _, _| kv_serve_run(kv_smoke_universe(), kv_smoke_config()).fabric,
        backend: "txn",
        ranks: &[KV_SMOKE_RANKS],
        node_sizes: &[KV_SMOKE_NODE_SIZE],
        stable: false,
        seed: KV_SMOKE_SEED,
    },
    AgentSpec {
        name: "dsde",
        run: dsde_round,
        backend: "rmc",
        ranks: &[8],
        node_sizes: &[2],
        stable: false,
        seed: SEED,
    },
    AgentSpec {
        name: "hashtable",
        run: hashtable_inserts,
        backend: "rma",
        ranks: &[8],
        node_sizes: &[2],
        stable: false,
        seed: SEED,
    },
];

/// One completed sweep point.
#[derive(Debug, Clone)]
pub struct ConfigResult {
    /// Registry name of the agent.
    pub agent: &'static str,
    /// Backend the agent exercises.
    pub backend: &'static str,
    /// Rank count of this sweep point.
    pub ranks: usize,
    /// Node size (ranks per simulated node) of this sweep point.
    pub node_size: usize,
    /// Seed the point ran with.
    pub seed: u64,
    /// Per-class aggregates of the point's metrics snapshot.
    pub classes: Vec<ClassMetrics>,
    /// Fault injections per class, nonzero entries only.
    pub faults: Vec<(&'static str, u64)>,
    /// Telemetry ring overwrites.
    pub dropped: u64,
    /// Wall-clock time of the agent (table only; never in the summary).
    pub wall: Duration,
    /// Copied from [`AgentSpec::stable`].
    pub stable: bool,
}

impl ConfigResult {
    /// Total ops across all classes.
    pub fn total_ops(&self) -> u64 {
        self.classes.iter().map(|c| c.count).sum()
    }

    /// Total virtual ns across all classes.
    pub fn total_virtual_ns(&self) -> u64 {
        self.classes.iter().map(|c| c.total_ns).sum()
    }

    /// Total fault injections.
    pub fn total_faults(&self) -> u64 {
        self.faults.iter().map(|(_, n)| n).sum()
    }
}

/// Run one sweep point of `spec` in this process and snapshot its fabric.
/// A panic anywhere in the agent (a rank's, re-raised by the launch, or
/// its own post-run assert) is an error naming the point.
pub fn run_point(spec: &AgentSpec, ranks: usize, node_size: usize) -> Result<ConfigResult, String> {
    let (seed, t0) = (spec.seed, Instant::now());
    let fabric = std::panic::catch_unwind(|| (spec.run)(ranks, node_size, seed)).map_err(|p| {
        let msg = p
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| p.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        format!("agent {}: panicked: {msg}", spec.label(ranks, node_size))
    })?;
    let wall = t0.elapsed();
    let MetricsSnapshot { classes, faults, dropped, .. } = metrics::snapshot(&fabric);
    Ok(ConfigResult {
        agent: spec.name,
        backend: spec.backend,
        ranks,
        node_size,
        seed,
        classes,
        faults: faults.into_iter().filter(|&(_, n)| n > 0).collect(),
        dropped,
        wall,
        stable: spec.stable,
    })
}

/// Merge every stable run's rows into one per class (sorted by class
/// name) with [`ClassMetrics::merge`]. Associativity makes the result
/// independent of run order.
fn merge_classes(runs: &[ConfigResult]) -> Vec<ClassMetrics> {
    let mut by_class: BTreeMap<&str, ClassMetrics> = BTreeMap::new();
    for c in runs.iter().filter(|r| r.stable).flat_map(|r| &r.classes) {
        by_class.entry(c.kind.name()).and_modify(|m| m.merge(c)).or_insert_with(|| c.clone());
    }
    by_class.into_values().collect()
}

/// The runs `keep` selects, sorted by (backend, agent, ranks, node_size)
/// so registry order doesn't leak into a rendering.
fn in_config_order(runs: &[ConfigResult], keep: fn(&ConfigResult) -> bool) -> Vec<&ConfigResult> {
    let mut sorted: Vec<&ConfigResult> = runs.iter().filter(|r| keep(r)).collect();
    sorted.sort_by_key(|&r| (r.backend, r.agent, r.ranks, r.node_size));
    sorted
}

/// `items` one per line, each after `indent`, comma-separated.
fn lines(indent: &str, items: impl Iterator<Item = String>) -> String {
    let mut out = items.map(|item| format!("{indent}{item}")).collect::<Vec<_>>().join(",\n");
    if !out.is_empty() {
        out.push('\n');
    }
    out
}

/// Render the byte-stable fleet summary, configurations sorted by
/// (backend, agent, ranks, node_size); schedule-dependent (unstable) runs
/// are dropped, so the file stays byte-stable even when the sweep
/// includes them.
pub fn render_summary(runs: &[ConfigResult]) -> String {
    let configs = in_config_order(runs, |r| r.stable).into_iter().map(|run| {
        let faults: Vec<String> =
            run.faults.iter().map(|(name, n)| format!("\"{name}\":{n}")).collect();
        format!(
            "    {{\"agent\":\"{}\",\"backend\":\"{}\",\"ranks\":{},\"node_size\":{},\"seed\":{},\n     \
             \"classes\":[\n{}     ],\n     \"faults\":{{{}}},\"dropped\":{}}}",
            run.agent,
            run.backend,
            run.ranks,
            run.node_size,
            run.seed,
            lines("      ", run.classes.iter().map(|c| c.to_json(false))),
            faults.join(","),
            run.dropped,
        )
    });
    format!(
        "{{\n  \"configs\": [\n{}  ],\n  \"merged\": [\n{}  ]\n}}\n",
        lines("", configs),
        lines("    ", merge_classes(runs).iter().map(|m| m.to_json(false)))
    )
}

/// Render the human sweep table: every run, unstable ones included, with
/// its wall-clock time (the non-deterministic sibling of the summary).
pub fn render_table(runs: &[ConfigResult]) -> String {
    let mut out = format!(
        "{:<14} {:>7} {:>5} {:>4} {:>5} {:>9} {:>12} {:>11} {:>8} {:>7}\n",
        "agent",
        "backend",
        "ranks",
        "node",
        "seed",
        "ops",
        "virtual_ms",
        "put_p99_ns",
        "wall_ms",
        "faults"
    );
    for run in in_config_order(runs, |_| true) {
        let put_p99 = run
            .classes
            .iter()
            .find(|c| c.kind == EventKind::Put)
            .map(|c| c.lat.quantile_hi(0.99).to_string())
            .unwrap_or_else(|| "-".into());
        out.push_str(&format!(
            "{:<14} {:>7} {:>5} {:>4} {:>5} {:>9} {:>12.3} {:>11} {:>8.1} {:>7}\n",
            run.agent,
            run.backend,
            run.ranks,
            run.node_size,
            run.seed,
            run.total_ops(),
            run.total_virtual_ns() as f64 / 1e6,
            put_p99,
            run.wall.as_secs_f64() * 1e3,
            run.total_faults(),
        ));
    }
    out
}

// ------------------------------------------------------------------
// The neighbor backends: `rma`, `msg` and `pgas` run an equivalent
// fixed-shape neighbor workload over a different software path — raw RMA
// (fompi one-sided), notified msg-channels, and the compiled-PGAS layer —
// so a sweep compares the three stacks on identical topology and op mix.
// They are built from schedule-independent primitives only (single-locker
// epochs, disjoint AMO targets, pairwise channels), so their metrics are
// byte-stable for a given (backend, ranks, node_size, seed). The placement
// changes per-op *costs*, never the schedule.

/// Put/get sizes each backend streams (8 B … 4 KiB spans the DMAPP
/// protocol change, so the size histograms cover both regimes).
const SIZES: [usize; 4] = [8, 64, 512, 4096];
/// Ops per size per rank.
const REPS: usize = 8;
/// Channel messages per pair (msg backend).
const CHANNEL_MSGS: usize = 32;
/// Notification-ring depth of the neighbor backends.
const NOTIFY_DEPTH: usize = 2 * REPS * SIZES.len();
/// Hashtable inserts per rank (hashtable agent).
const INSERTS: usize = 64;

fn neighbor_universe(p: usize, node_size: usize, seed: u64, notify_depth: usize) -> Universe {
    Universe::new(p).node_size(node_size).seed(seed).metrics(true).notify_depth(notify_depth)
}

/// Raw one-sided backend: ring-neighbor put/get epochs, disjoint-target
/// AMOs, notified handoffs and fence rounds. Each target is locked by
/// exactly one origin (its left neighbor), so no lock is ever contended.
fn rma(p: usize, node_size: usize, seed: u64) -> Arc<Fabric> {
    let (_, fabric) = neighbor_universe(p, node_size, seed, NOTIFY_DEPTH).launch(move |ctx| {
        let win = Win::allocate(ctx, 1 << 16, 1).unwrap();
        let right = (ctx.rank() + 1) % ctx.size() as u32;
        win.lock(LockType::Exclusive, right).unwrap();
        let mut disp = 0usize;
        for size in SIZES {
            let data = vec![0x5Au8; size];
            for _ in 0..REPS {
                win.put(&data, right, disp).unwrap();
                disp += size;
            }
            win.flush(right).unwrap();
        }
        let mut buf = vec![0u8; 512];
        win.get(&mut buf, right, 0).unwrap();
        win.flush(right).unwrap();
        win.accumulate(&[1u8; 64], NumKind::U64, MpiOp::Sum, right, disp).unwrap();
        win.compare_and_swap(7, 0, right, disp + 64).unwrap();
        win.flush(right).unwrap();
        win.unlock(right).unwrap();
        win.fence().unwrap();
        win.fence().unwrap();
        win.free(ctx);
        // Notified ring: every rank streams to its right neighbor and
        // drains from its left; records are matched by tag = index.
        let nwin = Win::allocate(ctx, REPS * 64, 1).unwrap();
        nwin.lock_all().unwrap();
        ctx.barrier();
        for i in 0..REPS {
            nwin.put_notify(&[i as u8; 64], right, i * 64, i as u32).unwrap();
        }
        let left = (ctx.rank() + ctx.size() as u32 - 1) % ctx.size() as u32;
        for i in 0..REPS as u32 {
            nwin.wait_notify(left, i).unwrap();
        }
        nwin.unlock_all().unwrap();
        ctx.barrier();
    });
    fabric
}

/// Msg-channel backend: the same byte volume moved through notified SPSC
/// channels, one independent pair per two ranks (even sender, odd
/// receiver), so `p` must be even.
fn msg(p: usize, node_size: usize, seed: u64) -> Arc<Fabric> {
    assert!(p.is_multiple_of(2), "the msg backend pairs ranks: p = {p} is odd");
    let (_, fabric) = neighbor_universe(p, node_size, seed, NOTIFY_DEPTH).launch(move |ctx| {
        for pair in 0..(p as u32) / 2 {
            let (tx_rank, rx_rank) = (2 * pair, 2 * pair + 1);
            match channel(ctx, tx_rank, rx_rank, 4, *SIZES.last().unwrap()).unwrap() {
                Some(ChannelEnd::Sender(mut tx)) => {
                    for i in 0..CHANNEL_MSGS {
                        let msg = vec![i as u8; SIZES[i % SIZES.len()]];
                        tx.send(&msg).unwrap();
                    }
                    tx.close(ctx).unwrap();
                }
                Some(ChannelEnd::Receiver(mut rx)) => {
                    let mut buf = [0u8; 4096];
                    for _ in 0..CHANNEL_MSGS {
                        rx.recv(&mut buf).unwrap();
                    }
                    rx.close(ctx).unwrap();
                }
                None => {}
            }
        }
        ctx.barrier();
    });
    fabric
}

/// Compiled-PGAS backend: the same neighbor traffic through the UPC-style
/// shared array (per-op software overhead on the same fabric), including
/// uncontended remote atomics onto per-origin slots.
fn pgas(p: usize, node_size: usize, seed: u64) -> Arc<Fabric> {
    let (_, fabric) = neighbor_universe(p, node_size, seed, NOTIFY_DEPTH).launch(move |ctx| {
        let arr = SharedArray::all_alloc(ctx, 1 << 16);
        let right = (ctx.rank() + 1) % ctx.size() as u32;
        let mut disp = 0usize;
        for size in SIZES {
            let data = vec![0xC3u8; size];
            for _ in 0..REPS {
                arr.memput(right, disp, &data);
                disp += size;
            }
        }
        arr.fence();
        let mut buf = vec![0u8; 512];
        arr.memget(&mut buf, right, 0);
        // One aadd per origin onto a slot only this origin touches.
        arr.aadd(right, disp + 8 * ctx.rank() as usize, 3);
        arr.barrier();
    });
    fabric
}

/// One DSDE round over the remote-memory-channel mesh: each rank sends to
/// `k = min(3, p - 1)` random targets and drains until dry. Draining
/// `ANY_SOURCE` joins latencies in arrival order: unstable.
fn dsde_round(p: usize, node_size: usize, seed: u64) -> Arc<Fabric> {
    let k = 3.min(p - 1);
    let cfg = RmcConfig { slots: 4, slot_bytes: 8, ..RmcConfig::default() };
    let (_, fabric) = neighbor_universe(p, node_size, seed, 256).launch(move |ctx| {
        let mut m = fompi_rmc::mesh(ctx, &cfg).expect("mesh");
        let r = dsde::run_rmc(ctx, &mut m, k, seed);
        let sent_to_me = (0..p as u32)
            .flat_map(|s| dsde::pick_targets(s, p, k, seed))
            .filter(|&t| t == ctx.rank())
            .count();
        assert_eq!(r.received.len(), sent_to_me, "dsde round lost messages");
        m.close(ctx).expect("mesh close");
    });
    fabric
}

/// Owner-computes notified inserts into the distributed hashtable; a small
/// table forces collision chains. Unstable, like [`dsde_round`].
fn hashtable_inserts(p: usize, node_size: usize, seed: u64) -> Arc<Fabric> {
    let cfg =
        hashtable::HtConfig { inserts_per_rank: INSERTS, table_slots: 32, heap_cells: 4096, seed };
    let (outs, fabric) = neighbor_universe(p, node_size, seed, 2048)
        .launch(move |ctx| hashtable::run_notified(ctx, &cfg));
    let total: usize = outs.iter().map(|r| r.local_elements).sum();
    assert_eq!(total, p * INSERTS, "hashtable lost elements");
    fabric
}

// ------------------------------------------------------------------
// scope: the committed metrics snapshot's workload.

/// Notified messages per scope run (well under the sized notification
/// ring).
const SCOPE_ITEMS: usize = 32;

/// The scope workload's seed.
const SCOPE_SEED: u64 = 7;

/// The scope workload's universe: two inter-node ranks, `SCOPE_SEED`,
/// faults and batching pinned off.
pub fn scope_universe() -> Universe {
    Universe::new(2)
        .node_size(1)
        .seed(SCOPE_SEED)
        .faults(FaultPlan::disabled())
        .batch(false)
        .notify_depth(2 * SCOPE_ITEMS)
}

/// Rank 0 holds a shared lock on rank 1 and streams `SCOPE_ITEMS`
/// notified 64-byte puts plus a locked put epoch; rank 1 consumes the
/// notifications from its local ring. No contended AMO ever races (single
/// locker, local ring polls), so the virtual timeline is
/// schedule-independent. Returns each rank's final virtual clock (as
/// bits) and the fabric.
pub fn scope_workload(u: Universe) -> (Vec<u64>, Arc<Fabric>) {
    u.launch(|ctx| {
        let win = Win::allocate(ctx, 4096, 1).unwrap();
        if ctx.rank() == 0 {
            win.lock(LockType::Shared, 1).unwrap();
            for i in 0..SCOPE_ITEMS {
                win.put_notify(&[i as u8; 64], 1, i * 64, i as u32).unwrap();
            }
            win.put(&[0xA5u8; 256], 1, SCOPE_ITEMS * 64).unwrap();
            win.flush(1).unwrap();
            win.unlock(1).unwrap();
        } else {
            for i in 0..SCOPE_ITEMS as u32 {
                win.wait_notify(0, i).unwrap();
            }
        }
        ctx.barrier();
        ctx.now().to_bits()
    })
}

// ------------------------------------------------------------------
// txn_ablation: W writers on one hot cell.

/// Rounds of the contention ablation.
pub const TXN_ROUNDS: usize = 32;
/// Payload bytes of the contended cell.
const PAY: usize = 8;

/// One contention point: mean commit latency (snapshot → publication,
/// including retries and backoff) and the abort tally.
pub struct TxnPoint {
    /// Logical writers interleaved on the driver rank.
    pub writers: usize,
    /// Commits over all rounds.
    pub commits: u64,
    /// Aborted attempts over all rounds.
    pub aborts: u64,
    /// Mean virtual ns from a writer's first snapshot to its commit.
    pub mean_commit_ns: f64,
    /// The cell's value after the last round.
    pub final_value: u64,
}

/// The seed of [`contend`]'s universe.
const CONTEND_SEED: u64 = 11;

/// `writers` logical writers contend for one remote versioned cell for
/// [`TXN_ROUNDS`] rounds, deterministically interleaved on driver rank 0,
/// so the abort cascade is an exact function of the seed. `agent` arms
/// metrics and leaves the fault layer env-governed (the chaos sweep
/// injects through `FOMPI_FAULTS`); otherwise faults are pinned off and
/// the cascade is exact.
pub fn contend(writers: usize, agent: bool) -> (TxnPoint, Arc<Fabric>) {
    let mut universe = Universe::new(2).node_size(1).seed(CONTEND_SEED).metrics(agent);
    if !agent {
        universe = universe.faults(FaultPlan::disabled());
    }
    let (outs, fabric) = universe.launch(move |ctx| {
        let win = Win::allocate(ctx, 16, 1).unwrap();
        VersionedCell::init_local(&win, 0, &[0u8; PAY]);
        ctx.barrier();
        win.lock_all().unwrap();
        let mut out = (0u64, 0u64, 0.0, 0u64);
        if ctx.rank() == 0 {
            let cell = VersionedCell::new(1, 0, PAY);
            let policy = RetryPolicy::default();
            let mut rng = Rng::seed_from_u64(99);
            let (mut commits, mut aborts, mut total_ns) = (0u64, 0u64, 0.0);
            // A writer's pending attempt: its staged delta, the
            // virtual time its *first* snapshot started, its attempt
            // count, and the ready-to-commit transaction.
            let snapshot = |w: &mut Txn, delta: u64| -> Result<(), TxnError> {
                let mut buf = [0u8; PAY];
                w.read(cell, &mut buf)?;
                let v = u64::from_le_bytes(buf).wrapping_add(delta);
                w.write(cell, &v.to_le_bytes())
            };
            for round in 0..TXN_ROUNDS {
                // Phase 1: every writer snapshots the same version.
                let mut pending = Vec::new();
                for wi in 0..writers {
                    let delta = (round * writers + wi) as u64 + 1;
                    let mut txn = Txn::begin(&win);
                    snapshot(&mut txn, delta).unwrap();
                    pending.push((delta, ctx.now(), 1u32, txn));
                }
                // Phase 2: round-robin commits; losers back off,
                // re-snapshot and re-queue for the next sub-round.
                while !pending.is_empty() {
                    let mut next = Vec::new();
                    for (delta, t0, attempt, txn) in pending {
                        match txn.commit() {
                            Ok(_) => {
                                commits += 1;
                                total_ns += ctx.now() - t0;
                            }
                            Err(e) if e.is_transient() => {
                                aborts += 1;
                                ctx.ep().charge(policy.backoff_ns(attempt, &mut rng));
                                let mut retry = Txn::begin(&win);
                                snapshot(&mut retry, delta).unwrap();
                                next.push((delta, t0, attempt + 1, retry));
                            }
                            Err(e) => panic!("non-transient abort: {e}"),
                        }
                    }
                    pending = next;
                }
            }
            let mut buf = [0u8; PAY];
            cell.read(&win, &mut buf).unwrap();
            out = (commits, aborts, total_ns / commits as f64, u64::from_le_bytes(buf));
        }
        win.unlock_all().unwrap();
        ctx.barrier();
        out
    });
    let (commits, aborts, mean_commit_ns, final_value) = outs[0];
    (TxnPoint { writers, commits, aborts, mean_commit_ns, final_value }, fabric)
}

// ------------------------------------------------------------------
// rmc_ablation: the fleet mixes the ablation's schedule-independent
// shapes in one universe.

/// Messages per sender in every rmc scenario.
pub const RMC_MSGS: usize = 16;
/// Channel payload bytes (one cache-line-ish message).
pub const RMC_BYTES: usize = 64;
/// RPC request payload bytes.
pub const RPC_REQ: usize = 32;
/// RPC reply payload bytes.
pub const RPC_REP: usize = 64;

/// Deterministic per-message payload.
pub fn payload(source: u32, seq: usize) -> [u8; RMC_BYTES] {
    let mut b = [0u8; RMC_BYTES];
    b[..8].copy_from_slice(&splitmix64(((source as u64) << 32) ^ seq as u64).to_le_bytes());
    b
}

/// One deterministic universe exercising the schedule-independent rmc
/// paths only (sized fan-out, 1-slot fan-in, one RPC client), metrics
/// armed, faults env-governed.
fn rmc_mix(_: usize, _: usize, seed: u64) -> Arc<Fabric> {
    let (_, fabric) =
        Universe::new(4).node_size(1).seed(seed).notify_depth(256).metrics(true).launch(|ctx| {
            // Phase 1: fan-out 0 → {1,2,3}, rings sized to the burst.
            match fanout(ctx, 0, &[1, 2, 3], RMC_MSGS, RMC_BYTES, LaggingPolicy::Block)
                .unwrap()
                .unwrap()
            {
                FanoutEnd::Publisher(mut tx) => {
                    ctx.barrier();
                    for seq in 0..RMC_MSGS {
                        tx.publish(&payload(0, seq)).unwrap();
                    }
                    ctx.barrier();
                    tx.close(ctx).unwrap();
                }
                FanoutEnd::Subscriber(mut rx) => {
                    let mut buf = [0u8; RMC_BYTES];
                    ctx.barrier();
                    for _ in 0..RMC_MSGS {
                        rx.recv(&mut buf).unwrap();
                    }
                    ctx.barrier();
                    rx.close(ctx).unwrap();
                }
            }
            // Phase 2: strict-alternation fan-in 1 → 0 plus an RPC client;
            // ranks 2 and 3 pass through the collectives.
            match fanin(ctx, 0, &[1], 1, RMC_BYTES).unwrap() {
                Some(FaninEnd::Producer(mut tx)) => {
                    for seq in 0..RMC_MSGS {
                        tx.send(&payload(1, seq)).unwrap();
                    }
                    tx.close(ctx).unwrap();
                }
                Some(FaninEnd::Consumer(mut rx)) => {
                    let mut buf = [0u8; RMC_BYTES];
                    for _ in 0..RMC_MSGS {
                        rx.recv(&mut buf).unwrap();
                    }
                    rx.close(ctx).unwrap();
                }
                None => {}
            }
            let cfg =
                RmcConfig { slots: 4, slot_bytes: RPC_REP.max(RPC_REQ), ..RmcConfig::default() };
            match rpc(ctx, 0, &[1], &cfg).unwrap() {
                Some(RpcEnd::Server(mut srv)) => {
                    for _ in 0..RMC_MSGS {
                        let req = srv.recv().unwrap();
                        let rep = [0x7Fu8; RPC_REP];
                        srv.reply(&req, &rep).unwrap();
                    }
                    srv.close(ctx).unwrap();
                }
                Some(RpcEnd::Client(mut cl)) => {
                    let mut buf = [0u8; RPC_REP];
                    for _ in 0..RMC_MSGS {
                        cl.call(&[1u8; RPC_REQ], &mut buf).unwrap();
                    }
                    cl.close(ctx).unwrap();
                }
                None => {}
            }
            ctx.barrier();
        });
    fabric
}

// ------------------------------------------------------------------
// kv_serve: the served transactional KV store.

/// Ranks of the smoke-sized serve.
pub const KV_SMOKE_RANKS: usize = 8;
/// Node size of the smoke-sized serve.
pub const KV_SMOKE_NODE_SIZE: usize = 4;
/// Seed of the smoke-sized serve.
const KV_SMOKE_SEED: u64 = 7;

/// The smoke-sized serve's configuration (`kv_serve --smoke` and the
/// fleet's `kv-serve` row).
pub fn kv_smoke_config() -> KvConfig {
    KvConfig {
        buckets_per_rank: 512,
        keyspace: 4096,
        theta: 0.99,
        warm_per_rank: 64,
        ops_per_rank: 128,
        seed: KV_SMOKE_SEED,
        ..KvConfig::default()
    }
}

/// The fleet's smoke-sized universe: metrics armed, faults env-governed.
fn kv_smoke_universe() -> Universe {
    Universe::new(KV_SMOKE_RANKS)
        .node_size(KV_SMOKE_NODE_SIZE)
        .seed(kv_smoke_config().seed)
        .metrics(true)
}

/// What one serve leaves behind.
pub struct KvServed {
    /// Every rank's tally summed (`time_ns`: the slowest rank's).
    pub agg: KvServeStats,
    /// The job-wide table digest every rank agreed on: (conservation
    /// violations, occupied cells, value sum, content hash).
    pub digest: (u64, u64, u64, u64),
    /// The metrics snapshot taken after quiescence.
    pub snap: MetricsSnapshot,
    /// The fabric the serve ran on.
    pub fabric: Arc<Fabric>,
}

/// Serve `cfg` on `universe` (metrics must be armed) and check the run:
/// every rank agrees on the table digest, no value was minted or burned,
/// and every issued operation committed exactly once. The retry policy is
/// an effectively unbounded backoff, so every operation commits
/// (exactness over shedding).
pub fn kv_serve_run(universe: Universe, cfg: KvConfig) -> KvServed {
    let p = universe.size();
    let policy = RetryPolicy::Backoff { budget: 1 << 20, base_ns: 400, cap_ns: 100_000 };
    let (outs, fabric) = universe.launch(move |ctx| {
        let store = KvStore::allocate(ctx, cfg);
        let stats = serve(ctx, &store, &policy);
        let check = conservation_check(ctx, &store, &stats);
        (stats, check)
    });
    let agg = outs.iter().fold(KvServeStats::default(), |mut a, (s, _)| {
        a.reads += s.reads;
        a.hits += s.hits;
        a.upserts += s.upserts;
        a.transfers += s.transfers;
        a.time_ns = a.time_ns.max(s.time_ns);
        a
    });
    let digest = outs[0].1;
    assert!(outs.iter().all(|(_, c)| *c == digest), "ranks disagree on the global table digest");
    assert_eq!(digest.0, 0, "conservation violated");
    // Snapshot only now, after quiescence: every rank thread has joined
    // (the launch returned) and the conservation digest has been
    // cross-checked, so the commit tail — retried transactions that
    // landed after the fast ranks finished — is fully recorded. A
    // snapshot taken before this point undercounts `txn_commit`.
    let snap = metrics::snapshot(&fabric);
    let commits =
        snap.classes.iter().find(|c| c.kind == EventKind::TxnCommit).map_or(0, |c| c.count);
    assert!(commits > 0, "no transaction committed");
    assert_eq!(
        commits,
        (p * (cfg.warm_per_rank + cfg.ops_per_rank)) as u64,
        "every issued operation must commit exactly once"
    );
    KvServed { agg, digest, snap, fabric }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fompi_fabric::telemetry::{HistSnapshot, Histogram};
    use EventKind::{Fence, Get, Put, TxnCommit};

    fn run(
        agent: &'static str,
        backend: &'static str,
        ranks: usize,
        classes: Vec<ClassMetrics>,
    ) -> ConfigResult {
        ConfigResult {
            agent,
            backend,
            ranks,
            node_size: 1,
            seed: 1,
            classes,
            faults: vec![],
            dropped: 0,
            wall: Duration::ZERO,
            stable: true,
        }
    }

    fn class(kind: EventKind, samples: &[u64]) -> ClassMetrics {
        let h = Histogram::new();
        for &s in samples {
            h.record(s);
        }
        ClassMetrics {
            kind,
            count: samples.len() as u64,
            bytes: 8 * samples.len() as u64,
            total_ns: samples.iter().sum(),
            lat: h.snapshot(),
            size: HistSnapshot::new(),
        }
    }

    /// The summary entry of the one config (`agent`, `ranks`,
    /// `node_size`) of a rendered summary, through its closing brace.
    fn config<'a>(summary: &'a str, agent: &str, ranks: usize, node_size: usize) -> &'a str {
        let head = format!("{{\"agent\":\"{agent}\",");
        let axis = format!("\"ranks\":{ranks},\"node_size\":{node_size},");
        let mut found = summary
            .match_indices(&head)
            .map(|(at, _)| &summary[at..])
            .filter(|rest| rest.lines().next().is_some_and(|l| l.contains(&axis)));
        let entry =
            found.next().unwrap_or_else(|| panic!("no config {agent}/p{ranks}/n{node_size}"));
        assert!(found.next().is_none(), "two configs {agent}/p{ranks}/n{node_size}");
        &entry[..entry.find("\"dropped\"").unwrap()]
    }

    /// Whether a rendered config entry holds exactly `rows`, in order.
    fn holds(entry: &str, rows: &[ClassMetrics]) -> bool {
        let got: Vec<&str> =
            entry.lines().map(str::trim).filter(|l| l.starts_with("{\"class\"")).collect();
        let want: Vec<String> = rows.iter().map(|c| c.to_json(false)).collect();
        got.len() == want.len() && got.iter().zip(&want).all(|(g, w)| g.trim_end_matches(',') == w)
    }

    #[test]
    fn merged_tail_is_the_union_not_an_average() {
        // One fast config, one slow: the merged p99 must come from the
        // union distribution (the slow samples), which no averaging of
        // per-config quantiles would produce.
        let fast = run("a", "rma", 2, vec![class(Put, &[100; 90])]);
        let slow = run("b", "msg", 2, vec![class(Put, &[1_000_000; 10])]);
        let merged = merge_classes(&[fast, slow]);
        assert_eq!(merged.len(), 1);
        assert_eq!(merged[0].count, 100);
        assert!(merged[0].lat.quantile_hi(0.99) >= 1_000_000);
        assert!(merged[0].lat.quantile_hi(0.5) < 1_000_000);
    }

    #[test]
    fn summary_is_independent_of_run_order() {
        let a = run("a", "rma", 2, vec![class(Put, &[64, 128]), class(Fence, &[500])]);
        let b = run("b", "msg", 4, vec![class(Put, &[256])]);
        let fwd = render_summary(&[a.clone(), b.clone()]);
        let rev = render_summary(&[b.clone(), a.clone()]);
        assert_eq!(fwd, rev, "summary must not depend on registry order");
        assert!(holds(config(&fwd, "a", 2, 1), &a.classes));
        assert!(holds(config(&fwd, "b", 4, 1), &b.classes));
        let merged = merge_classes(&[b, a]);
        let (fence, put) = (&merged[0], &merged[1]);
        assert_eq!((fence.kind, fence.total_ns), (Fence, 500));
        assert_eq!((put.kind, put.count), (Put, 3));
        assert!(put.tails()[2] >= 256);
        let tail = &fwd[fwd.find("\"merged\"").unwrap()..];
        assert!(holds(tail, &merged), "the merged rows follow the configs:\n{fwd}");
    }

    #[test]
    fn node_size_is_a_first_class_sweep_axis() {
        // Same agent, same ranks, different placement: the two sweep
        // points must survive as distinct configs with their own values
        // (a summary that collapsed them would silently pin only one).
        let n1 = run("a", "rma", 4, vec![class(Put, &[64])]);
        let mut n2 = run("a", "rma", 4, vec![class(Put, &[32])]);
        n2.node_size = 2;
        let text = render_summary(&[n2.clone(), n1.clone()]);
        assert!(holds(config(&text, "a", 4, 1), &n1.classes));
        assert!(holds(config(&text, "a", 4, 2), &n2.classes));
        // Sort order: n1 before n2 regardless of input order.
        assert!(text.find("\"node_size\":1").unwrap() < text.find("\"node_size\":2").unwrap());
        let table = render_table(&[n2, n1]);
        assert!(table.contains("node"), "table must carry the node column:\n{table}");
    }

    #[test]
    fn unstable_runs_stay_in_the_table_but_out_of_the_summary() {
        let stable = run("a", "rma", 2, vec![class(Put, &[64])]);
        let mut volatile = run("kv", "txn", 8, vec![class(TxnCommit, &[900])]);
        volatile.stable = false;
        let runs = [stable, volatile];
        let summary = render_summary(&runs);
        assert!(!summary.contains("kv"), "unstable metrics leaked into the summary:\n{summary}");
        assert!(!summary.contains("txn_commit"));
        assert_eq!(merge_classes(&runs).len(), 1, "merged classes must skip unstable runs");
        let table = render_table(&runs);
        assert!(table.contains("kv"), "unstable runs must still show in the table:\n{table}");
    }

    #[test]
    fn table_renders_a_missing_put_class_as_a_dash() {
        let mut r = run("a", "rma", 2, vec![class(Get, &[64])]);
        r.wall = Duration::from_micros(2_500);
        let t = render_table(&[r]);
        let row = t.lines().nth(1).unwrap();
        assert!(row.contains(" - "), "no put class renders as '-': {row}");
        assert!(row.contains(" 2.5 "), "wall_ms is the agent's own time: {row}");
    }

    #[test]
    fn a_panicking_agent_is_an_error_naming_its_point() {
        let spec = AgentSpec {
            name: "boom",
            run: |p, node_size, seed| {
                neighbor_universe(p, node_size, seed, 4).launch(|ctx| {
                    assert!(ctx.rank() != 1, "rank 1 gives up");
                });
                unreachable!("the launch re-raises the rank's panic")
            },
            backend: "rma",
            ranks: &[2],
            node_sizes: &[1],
            stable: true,
            seed: SEED,
        };
        let err = run_point(&spec, 2, 1).unwrap_err();
        assert!(err.starts_with("agent boom-p2-n1: panicked"), "{err}");
    }

    #[test]
    fn a_point_keeps_its_fabrics_snapshot() {
        // The fleet folds the agent's own snapshot: the scope agent's
        // rows are those of the scope workload run directly.
        let spec = REGISTRY.iter().find(|s| s.name == "scope").unwrap();
        let point = run_point(spec, 2, 1).unwrap();
        let (_, fabric) = scope_workload(scope_universe().metrics(true));
        assert_eq!(point.classes, metrics::snapshot(&fabric).classes);
        assert!(point.faults.is_empty() && point.total_ops() > 0);
        assert_eq!(point.agent, "scope");
    }
}
