//! The fleet's agent: one backend, one rank count, one seed, one JSON
//! metrics line.
//!
//! ```text
//! bench_agent --agent-json --backend rma  --ranks 4 --seed 1
//! bench_agent --agent-json --backend msg  --ranks 4 --seed 1
//! bench_agent --agent-json --backend pgas --ranks 4 --seed 1
//! bench_agent --agent-json --backend rma  --ranks 4 --node-size 2
//! bench_agent --agent-json --backend dsde --ranks 8 --node-size 2
//! bench_agent --agent-json --backend hashtable --ranks 8 --node-size 2
//! ```
//!
//! `rma`, `msg` and `pgas` run an equivalent fixed-shape neighbor
//! workload over a different software path — raw RMA (fompi one-sided),
//! notified msg-channels, and the compiled-PGAS layer — so a fleet sweep
//! compares the three stacks on identical topology and op mix. They are
//! built from schedule-independent primitives only (single-locker epochs,
//! disjoint AMO targets, pairwise channels), so the virtual-time metrics
//! line is byte-stable for a given (backend, ranks, seed) and the fleet
//! summary can be byte-diffed in CI.
//!
//! `dsde` and `hashtable` run two of the paper's application motifs: one
//! DSDE round over the remote-memory-channel mesh, and owner-computes
//! notified hashtable inserts. Both drain `ANY_SOURCE`, so their latency
//! joins arrive in schedule order: the fleet registers them *unstable*,
//! and their numbers feed the wall-clock table and the chaos sweep, never
//! the byte-diffed summary. Each asserts its own delivery count.
//!
//! `--node-size` sets how many consecutive ranks share a node: 1 makes
//! every neighbor hop cross the network, larger values route part of the
//! ring through the XPMEM fast path. The placement changes per-op
//! *costs*, never the schedule, so every (backend, ranks, node_size,
//! seed) point stays byte-stable and the fleet can sweep locality as a
//! first-class axis.
//!
//! `FOMPI_FAULTS` is deliberately *not* overridden: the chaos sweep arms
//! it per agent, and fault draws are issue-side seeded, so even chaos
//! metrics are deterministic.

use fompi::{LockType, MpiOp, NumKind, Win};
use fompi_apps::{dsde, hashtable};
use fompi_fabric::{metrics_snapshot, Fabric};
use fompi_msg::channel::{channel, ChannelEnd};
use fompi_pgas::SharedArray;
use fompi_rmc::RmcConfig;
use fompi_runtime::Universe;
use std::process::ExitCode;
use std::sync::Arc;

/// Put/get sizes each backend streams (8 B … 4 KiB spans the DMAPP
/// protocol change, so the size histograms cover both regimes).
const SIZES: [usize; 4] = [8, 64, 512, 4096];
/// Ops per size per rank.
const REPS: usize = 8;
/// Channel messages per pair (msg backend).
const MSGS: usize = 32;
/// Notification-ring depth of the neighbor backends.
const NOTIFY_DEPTH: usize = 2 * REPS * SIZES.len();
/// Hashtable inserts per rank (hashtable backend).
const INSERTS: usize = 64;

fn usage() -> ExitCode {
    eprintln!(
        "usage: bench_agent --agent-json --backend <rma|msg|pgas|dsde|hashtable> --ranks <N> \\
         [--node-size <M>] [--seed <S>]"
    );
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let mut backend = String::new();
    let mut ranks = 0usize;
    let mut node_size = 1usize;
    let mut seed = 1u64;
    let mut agent_json = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--agent-json" => agent_json = true,
            "--backend" => backend = args.next().unwrap_or_default(),
            "--ranks" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) => ranks = n,
                None => return usage(),
            },
            "--node-size" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) if n >= 1 => node_size = n,
                _ => return usage(),
            },
            "--seed" => match args.next().and_then(|v| v.parse().ok()) {
                Some(s) => seed = s,
                None => return usage(),
            },
            _ => return usage(),
        }
    }
    if !agent_json {
        return usage();
    }
    if ranks < 2 {
        eprintln!("bench_agent: --ranks must be >= 2");
        return ExitCode::FAILURE;
    }
    if backend == "msg" && !ranks.is_multiple_of(2) {
        eprintln!("bench_agent: --backend msg needs an even --ranks (pairwise channel phase)");
        return ExitCode::FAILURE;
    }
    let fabric = match backend.as_str() {
        "rma" => rma(ranks, node_size, seed),
        "msg" => msg(ranks, node_size, seed),
        "pgas" => pgas(ranks, node_size, seed),
        "dsde" => dsde_round(ranks, node_size, seed),
        "hashtable" => hashtable_inserts(ranks, node_size, seed),
        _ => return usage(),
    };
    println!("{}", metrics_snapshot(&fabric).to_json_line());
    ExitCode::SUCCESS
}

fn universe(p: usize, node_size: usize, seed: u64, notify_depth: usize) -> Universe {
    Universe::new(p).node_size(node_size).seed(seed).metrics(true).notify_depth(notify_depth)
}

/// Raw one-sided backend: ring-neighbor put/get epochs, disjoint-target
/// AMOs, notified handoffs and fence rounds. Each target is locked by
/// exactly one origin (its left neighbor), so no lock is ever contended.
fn rma(p: usize, node_size: usize, seed: u64) -> Arc<Fabric> {
    let (_, fabric) = universe(p, node_size, seed, NOTIFY_DEPTH).launch(move |ctx| {
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
/// receiver).
fn msg(p: usize, node_size: usize, seed: u64) -> Arc<Fabric> {
    let (_, fabric) = universe(p, node_size, seed, NOTIFY_DEPTH).launch(move |ctx| {
        for pair in 0..(p as u32) / 2 {
            let (tx_rank, rx_rank) = (2 * pair, 2 * pair + 1);
            match channel(ctx, tx_rank, rx_rank, 4, *SIZES.last().unwrap()).unwrap() {
                Some(ChannelEnd::Sender(mut tx)) => {
                    for i in 0..MSGS {
                        let msg = vec![i as u8; SIZES[i % SIZES.len()]];
                        tx.send(&msg).unwrap();
                    }
                    tx.close(ctx).unwrap();
                }
                Some(ChannelEnd::Receiver(mut rx)) => {
                    let mut buf = [0u8; 4096];
                    for _ in 0..MSGS {
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
    let (_, fabric) = universe(p, node_size, seed, NOTIFY_DEPTH).launch(move |ctx| {
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
/// `k = min(3, p - 1)` random targets and drains until dry.
fn dsde_round(p: usize, node_size: usize, seed: u64) -> Arc<Fabric> {
    let k = 3.min(p - 1);
    let cfg = RmcConfig { slots: 4, slot_bytes: 8, ..RmcConfig::default() };
    let (_, fabric) = universe(p, node_size, seed, 256).launch(move |ctx| {
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
/// table forces collision chains.
fn hashtable_inserts(p: usize, node_size: usize, seed: u64) -> Arc<Fabric> {
    let cfg =
        hashtable::HtConfig { inserts_per_rank: INSERTS, table_slots: 32, heap_cells: 4096, seed };
    let (outs, fabric) =
        universe(p, node_size, seed, 2048).launch(move |ctx| hashtable::run_notified(ctx, &cfg));
    let total: usize = outs.iter().map(|r| r.local_elements).sum();
    assert_eq!(total, p * INSERTS, "hashtable lost elements");
    fabric
}
