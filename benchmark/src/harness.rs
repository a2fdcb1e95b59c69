//! The repetition driver: one `Universe` of two ranks lives for a whole
//! repetition; set-up and warm-up run first, then batches are timed until
//! the window closes. Verification runs between batches, never inside one.

use crate::probe::{Probe, Span};
use fompi_fabric::{CounterSnapshot, FaultPlan, ProfileMode, RacecheckMode};
use fompi_runtime::{RankCtx, Universe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Every workload is sized for the reference box (`nproc` = 2): two rank
/// threads, the harness main thread asleep in `join`.
pub const RANKS: usize = 2;

/// The universe every workload and probe runs in. `node_size(1)` puts the
/// two ranks on different nodes (the inter-node DMAPP path, the paper's
/// headline path); every diagnostic plane that has a builder is pinned off.
/// Telemetry has none, so children are started with all `FOMPI_*` removed.
pub fn universe(seed: u64) -> Universe {
    Universe::new(RANKS)
        .node_size(1)
        .seed(seed)
        .faults(FaultPlan::disabled())
        .batch(false)
        .racecheck(RacecheckMode::Off)
        .profile(ProfileMode::Off)
        .metrics(false)
}

/// Harness-owned spin barrier. A monotone arrival count: the `k`-th wait of
/// every rank returns once `k * RANKS` arrivals are in, so it needs no
/// reset and cannot be lapped.
pub struct Rendezvous {
    arrivals: AtomicU64,
}

impl Rendezvous {
    pub fn new() -> Self {
        Self { arrivals: AtomicU64::new(0) }
    }

    /// `round` is the caller's own count of waits on this rendezvous.
    pub fn wait(&self, round: &mut u64) {
        *round += 1;
        let want = *round * RANKS as u64;
        // AcqRel/Acquire: everything a rank wrote before arriving is visible
        // to the ranks that leave.
        self.arrivals.fetch_add(1, Ordering::AcqRel);
        let mut spins = 0u32;
        while self.arrivals.load(Ordering::Acquire) < want {
            spins += 1;
            if spins < 2000 {
                std::hint::spin_loop();
            } else {
                // The peer lost its vCPU: stop burning ours.
                std::thread::yield_now();
            }
        }
    }
}

/// State shared by the two rank threads of one repetition.
pub struct Shared {
    /// Aligns batch starts and ends (driver only).
    pub batch_rv: Rendezvous,
    /// Phase hand-overs inside a batch (workloads only).
    pub phase_rv: Rendezvous,
    /// How many batch phases (warm-up, timed window) rank 0 has ended.
    ended: AtomicU64,
}

/// What one rank did in one batch.
#[derive(Default)]
pub struct Tally {
    pub ops: u64,
    pub failed: u64,
    /// Time inside `batch` that is not the workload's (endpoint re-creation
    /// the harness is forced into); subtracted from the batch's wall time.
    pub untimed: Duration,
}

pub trait Workload {
    /// Ranks meet in `ctx.barrier()` (asleep) instead of the spin
    /// rendezvous: for workloads where one rank idles, so that a single
    /// thread runs while a batch is timed.
    const PARK: bool;
    /// For a workload whose memory grows with every batch: warm up for
    /// exactly this many batches (not for a time) and read the peak RSS
    /// after as many timed ones, so the figure is that of a fixed amount of
    /// work however many batches fit in the window.
    const LEAK_GUARD: Option<u64> = None;
    type State;

    /// Windows, tables, endpoints. Collective.
    fn setup(ctx: &RankCtx, seed: u64) -> Self::State;
    /// One timed batch. A rank that returns `ops == 0` is not a timing rank.
    fn batch<P: Probe>(st: &mut Self::State, ctx: &RankCtx, sh: &Shared, p: &mut P) -> Tally;
    /// Check the batch's outputs; returns the number of failed ops.
    fn verify(st: &mut Self::State, ctx: &RankCtx) -> u64;
    /// End-of-window checks and teardown. Collective. Returns failed ops.
    fn finish(st: Self::State, ctx: &RankCtx) -> u64;
}

pub struct RepCfg {
    pub seed: u64,
    pub warm: Duration,
    pub window: Duration,
}

#[derive(Default)]
pub struct RankOut {
    /// Wall ns per op, one value per timed batch.
    pub samples: Vec<f64>,
    pub ops: u64,
    pub failed: u64,
    pub busy_ns: u64,
    pub virt_ns: f64,
    pub cpu_ns: u64,
    /// Peak RSS read mid-window (`Workload::LEAK_GUARD`), rank 0 only.
    pub guarded_rss_mib: Option<f64>,
}

pub struct RepOut<P> {
    pub ranks: Vec<RankOut>,
    /// Each rank's probe, in rank order.
    pub probes: Vec<P>,
    pub setup_s: f64,
    pub counters: CounterSnapshot,
}

impl<P> RepOut<P> {
    pub fn ops(&self) -> u64 {
        self.ranks.iter().map(|r| r.ops).sum()
    }

    pub fn failed(&self) -> u64 {
        self.ranks.iter().map(|r| r.failed).sum()
    }

    /// Per-batch samples pooled over the timing ranks.
    pub fn samples(&self) -> Vec<f64> {
        self.ranks.iter().flat_map(|r| r.samples.iter().copied()).collect()
    }

    /// Sum over ranks of ops / time spent in timed batches.
    pub fn ops_per_s(&self) -> f64 {
        self.ranks.iter().filter(|r| r.ops > 0).map(|r| r.ops as f64 * 1e9 / r.busy_ns as f64).sum()
    }

    pub fn virt_ns_per_op(&self) -> f64 {
        let timing = self.ranks.iter().filter(|r| r.ops > 0);
        timing.clone().map(|r| r.virt_ns).sum::<f64>() / timing.map(|r| r.ops).sum::<u64>() as f64
    }

    /// Peak RSS of the process so far, or what the leak guard read.
    pub fn peak_rss_mib(&self) -> f64 {
        self.ranks[0].guarded_rss_mib.unwrap_or_else(peak_rss_mib)
    }

    pub fn cpu_ns_per_op(&self) -> f64 {
        self.ranks.iter().map(|r| r.cpu_ns).sum::<u64>() as f64 / self.ops() as f64
    }
}

/// On-CPU nanoseconds of the calling thread (`/proc/thread-self/schedstat`,
/// first field). 0 where the file is missing: the metric then reads 0 and
/// says so, rather than failing the run.
pub fn thread_cpu_ns() -> u64 {
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().next().and_then(|f| f.parse().ok()))
        .unwrap_or(0)
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse::<f64>().ok())
        .unwrap_or(0.0);
    kb / 1024.0
}

/// Jiffies the hypervisor ran someone else while a vCPU of this guest was
/// runnable (`steal`, eighth value of the `cpu` line of `/proc/stat`), and
/// the jiffies of all kinds. A window with steal in it was disturbed from
/// outside; the suite prints the share so that such a run can be told apart.
pub fn steal_and_total_jiffies() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    (fields.get(7).copied().unwrap_or(0), fields.iter().take(8).sum())
}

/// CPU ids this process may run on (`Cpus_allowed_list`, e.g. `0-1,4`).
fn allowed_cpus() -> Vec<usize> {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let Some(list) = status.lines().find_map(|l| l.strip_prefix("Cpus_allowed_list:")) else {
        return Vec::new();
    };
    let mut cpus = Vec::new();
    for part in list.trim().split(',') {
        let (lo, hi) = part.split_once('-').unwrap_or((part, part));
        if let (Ok(lo), Ok(hi)) = (lo.parse::<usize>(), hi.parse::<usize>()) {
            cpus.extend(lo..=hi);
        }
    }
    cpus
}

extern "C" {
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Pin the calling rank thread to its own CPU. Left to themselves the two
/// rank threads sometimes share one vCPU for a whole window; they then take
/// turns instead of contending and `put_duplex` reads 68 ns instead of
/// 550 ns. With fewer CPUs than ranks nothing is pinned (the run is then
/// not comparable anyway, and the header says so).
pub fn pin_rank_thread(rank: u32) {
    let cpus = allowed_cpus();
    if cpus.len() < RANKS {
        return;
    }
    let cpu = cpus[rank as usize % cpus.len()];
    let mut mask = [0u64; 16];
    if cpu >= mask.len() * 64 {
        return;
    }
    mask[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `mask` is a live, initialised 128-byte buffer, the size passed
    // is its size, and pid 0 names the calling thread; the kernel only reads
    // the buffer. A refusal (errno) leaves the thread unpinned.
    let _ = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
}

fn meet<W: Workload>(ctx: &RankCtx, sh: &Shared, round: &mut u64) {
    if W::PARK {
        ctx.barrier();
    } else {
        sh.batch_rv.wait(round);
    }
}

#[derive(Clone, Copy)]
enum Until {
    Deadline(Instant),
    Batches(u64),
}

/// Run batch phase number `phase` (1, 2, ...) until `until`. Rank 0 decides
/// and publishes it through `sh.ended` before the end-of-batch meeting, so
/// both ranks leave after the same batch.
#[allow(clippy::too_many_arguments)] // one call site per phase, all of it context
fn run_batches<W: Workload, P: Probe>(
    st: &mut W::State,
    ctx: &RankCtx,
    sh: &Shared,
    p: &mut P,
    round: &mut u64,
    phase: u64,
    until: Until,
    out: Option<&mut RankOut>,
) {
    let mut out = out;
    let mut cycle = 0u64;
    loop {
        p.set_cycle(cycle);
        meet::<W>(ctx, sh, round);
        p.open(Span::Cycle);
        let v0 = ctx.now();
        let t0 = Instant::now();
        let tally = W::batch(st, ctx, sh, p);
        let t1 = Instant::now();
        let v1 = ctx.now();
        p.close();
        let over = match until {
            Until::Deadline(deadline) => t1 >= deadline,
            Until::Batches(n) => cycle + 1 >= n,
        };
        if ctx.rank() == 0 && over {
            sh.ended.store(phase, Ordering::Release);
        }
        meet::<W>(ctx, sh, round);
        p.open(Span::Verify);
        let bad = W::verify(st, ctx);
        p.close();
        if let Some(o) = out.as_deref_mut() {
            o.failed += tally.failed + bad;
            if tally.ops > 0 {
                let ns = (t1 - t0).saturating_sub(tally.untimed).as_nanos() as u64;
                o.samples.push(ns as f64 / tally.ops as f64);
                o.ops += tally.ops;
                o.busy_ns += ns;
                o.virt_ns += v1 - v0;
            }
        }
        cycle += 1;
        if let (Some(o), Some(guard)) = (out.as_deref_mut(), W::LEAK_GUARD) {
            if ctx.rank() == 0 && cycle == guard {
                o.guarded_rss_mib = Some(peak_rss_mib());
            }
        }
        if sh.ended.load(Ordering::Acquire) >= phase {
            break;
        }
    }
}

/// Launch a job, set `W` up, tear it down. Returns the seconds from before
/// the launch until rank 0 came out of `W::setup`: one sample of `setup_s`.
pub fn setup_only<W: Workload>(seed: u64) -> f64 {
    let start = Instant::now();
    let done = universe(seed).run(|ctx| {
        pin_rank_thread(ctx.rank());
        let st = W::setup(ctx, seed);
        let done = Instant::now();
        W::finish(st, ctx);
        done
    });
    (done[0] - start).as_secs_f64()
}

/// Reads the fabric's counters at moments when no rank is issuing: every
/// rank has arrived, and none leaves before all have read them.
pub struct Meter {
    mark: CounterSnapshot,
}

impl Meter {
    /// Collective.
    pub fn start(ctx: &RankCtx) -> Self {
        let mut meter = Meter { mark: CounterSnapshot::default() };
        meter.lap(ctx);
        meter
    }

    /// The traffic since the last reading. Collective.
    pub fn lap(&mut self, ctx: &RankCtx) -> CounterSnapshot {
        ctx.barrier();
        let now = ctx.fabric().counters().snapshot();
        ctx.barrier();
        let delta = now.since(&self.mark);
        self.mark = now;
        delta
    }
}

/// One repetition of workload `W` with probe `P` on every rank.
pub fn run_rep<W: Workload, P: Probe + Send>(
    cfg: &RepCfg,
    mk_probe: impl Fn(u32) -> P + Send + Sync,
) -> RepOut<P> {
    let start = Instant::now();
    let sh = Shared {
        batch_rv: Rendezvous::new(),
        phase_rv: Rendezvous::new(),
        ended: AtomicU64::new(0),
    };
    let (outs, _fabric) = universe(cfg.seed).launch(|ctx| {
        pin_rank_thread(ctx.rank());
        let mut round = 0u64;
        let mut st = W::setup(ctx, cfg.seed);
        let setup_done = Instant::now();
        let mut p = mk_probe(ctx.rank());
        // Warm-up: the same batches, results discarded. Caches fill, rings
        // wrap, the allocator settles; the probe stays off.
        run_batches::<W, _>(
            &mut st,
            ctx,
            &sh,
            &mut crate::probe::Off,
            &mut round,
            1,
            W::LEAK_GUARD.map_or(Until::Deadline(Instant::now() + cfg.warm), Until::Batches),
            None,
        );
        let c0 = ctx.fabric().counters().snapshot();
        let cpu0 = thread_cpu_ns();
        let mut out = RankOut::default();
        run_batches::<W, _>(
            &mut st,
            ctx,
            &sh,
            &mut p,
            &mut round,
            2,
            Until::Deadline(Instant::now() + cfg.window),
            Some(&mut out),
        );
        out.cpu_ns = thread_cpu_ns() - cpu0;
        // Read after the last batch's closing meeting, and nobody tears down
        // (`unlock_all` is an AMO) before every rank has read them: the delta
        // is exactly the window's traffic.
        let counters = ctx.fabric().counters().snapshot().since(&c0);
        meet::<W>(ctx, &sh, &mut round);
        out.failed += W::finish(st, ctx);
        (out, p, setup_done, counters)
    });
    let setup_s = (outs[0].2 - start).as_secs_f64();
    let counters = outs[0].3;
    let (ranks, probes) = outs.into_iter().map(|(o, p, _, _)| (o, p)).unzip();
    RepOut { ranks, probes, setup_s, counters }
}
