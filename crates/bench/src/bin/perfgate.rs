//! Virtual-time pins: the §3 primitives and the protocols above them.
//!
//! ```text
//! cargo run --release -p fompi-bench --bin perfgate   # rewrite results/perfgate.json
//! ```
//!
//! The fabric charges *virtual* time from a fixed cost model, so every
//! metric here is bit-reproducible: the same binary on any machine, any
//! load, writes the same JSON. There is no tolerance to set.
//! `scripts/ci.sh determinism` byte-diffs the file like every other
//! artifact; after a deliberate model or protocol change, rerun this
//! (from the repository root), review `git diff` (it names each moved
//! metric) and commit. The history of the wall clock lives in
//! `results/BENCH_history.jsonl`; this file has none.
//!
//! Metrics cover the §3 primitives at small and large sizes, with the
//! issue-side batching layer both off and on (put bursts and
//! hardware-AMO accumulate bursts), plus the notified-access paths: a
//! single `put_notify`/`wait_notify` handoff, a per-item handoff under
//! four synchronisation idioms (notified put, fence, PSCW, put + flush +
//! polled signal) and one `msg::channel` round (notified payload put
//! forward, credit record back); the transaction layer's hot path: one
//! versioned read, the commit phase of a 2-key transaction and the mean
//! commit under 1, 2 and 4 writers contending for one cell; and the
//! remote-memory-channel layer: a steady-state fan-in round over a 1-slot
//! ring, the per-send cost of 2, 4 and 8 producers into one consumer, and
//! one full single-client RPC round (request forward, correlated reply
//! back). Every rmc metric is sender-side or single-pairing, so it stays
//! deterministic (consumer `ANY_SOURCE` drains are schedule-dependent and
//! excluded).

use fompi::{LockType, MpiOp, NumKind, Win};
use fompi_bench::fleet::{contend, TXN_ROUNDS};
use fompi_fabric::{CostModel, FaultPlan};
use fompi_msg::channel::{channel, ChannelEnd};
use fompi_rmc::{FaninEnd, RmcConfig, RpcEnd};
use fompi_runtime::{Group, RankCtx, Universe};
use fompi_txn::{Txn, VersionedCell};
use std::collections::BTreeMap;

/// Where the metrics go, relative to the repository root.
const OUT: &str = "results/perfgate.json";

fn main() {
    let metrics = collect(&CostModel::default());
    println!("== perfgate: virtual-time metrics (ns) ==");
    for (k, v) in &metrics {
        println!("  {k:<28} {v:>12.1}");
    }
    std::fs::write(OUT, render_json(&metrics)).expect("write results/perfgate.json");
    println!("-> {OUT} (review `git diff` before committing)");
}

/// The job every metric runs in: `p` ranks, one per node, under `model`.
/// The seed is pinned, faults are disabled and batching is set
/// explicitly, so ambient `FOMPI_*` knobs cannot perturb a metric.
fn universe(p: usize, model: &CostModel, batch: bool) -> Universe {
    Universe::new(p)
        .node_size(1)
        .seed(1)
        .faults(FaultPlan::disabled())
        .batch(batch)
        .model(model.clone())
}

/// Run `f` on rank 0 of a 2-rank inter-node job and return the virtual
/// ns it reports.
fn measure(model: &CostModel, batch: bool, f: impl Fn(&Win, &RankCtx) -> f64 + Send + Sync) -> f64 {
    let got = universe(2, model, batch).run(|ctx| {
        let win = Win::allocate(ctx, 1 << 14, 1).unwrap();
        let dt = if ctx.rank() == 0 { f(&win, ctx) } else { 0.0 };
        ctx.barrier();
        dt
    });
    got[0]
}

/// A locked epoch issuing `n` contiguous `chunk`-sized puts then flushing;
/// returns total virtual ns for the epoch body.
fn put_epoch(model: &CostModel, batch: bool, n: usize, chunk: usize) -> f64 {
    measure(model, batch, move |win, ctx| {
        let data = vec![5u8; chunk];
        win.lock(LockType::Exclusive, 1).unwrap();
        let t0 = ctx.now();
        for i in 0..n {
            win.put(&data, 1, i * chunk).unwrap();
        }
        win.flush(1).unwrap();
        let dt = ctx.now() - t0;
        win.unlock(1).unwrap();
        dt
    })
}

fn collect(model: &CostModel) -> BTreeMap<String, f64> {
    let mut m = BTreeMap::new();
    // Small puts: a 16-op contiguous burst, per-op cost, both paths.
    m.insert("put_small_8_unbatched_ns".into(), put_epoch(model, false, 16, 8) / 16.0);
    m.insert("put_small_8_batched_ns".into(), put_epoch(model, true, 16, 8) / 16.0);
    // Large puts sit beyond the protocol change and bypass batching; pin
    // both switch positions to prove the bypass stays free.
    m.insert("put_large_8192_unbatched_ns".into(), put_epoch(model, false, 1, 8192));
    m.insert("put_large_8192_batched_ns".into(), put_epoch(model, true, 1, 8192));
    // Gets (never batched; reads must see a coherent horizon).
    m.insert(
        "get_small_8_ns".into(),
        measure(model, false, |win, ctx| {
            let mut dst = [0u8; 8];
            win.lock(LockType::Shared, 1).unwrap();
            let t0 = ctx.now();
            win.get(&mut dst, 1, 0).unwrap();
            win.flush(1).unwrap();
            let dt = ctx.now() - t0;
            win.unlock(1).unwrap();
            dt
        }),
    );
    m.insert(
        "get_large_8192_ns".into(),
        measure(model, false, |win, ctx| {
            let mut dst = vec![0u8; 8192];
            win.lock(LockType::Shared, 1).unwrap();
            let t0 = ctx.now();
            win.get(&mut dst, 1, 0).unwrap();
            win.flush(1).unwrap();
            let dt = ctx.now() - t0;
            win.unlock(1).unwrap();
            dt
        }),
    );
    // Hardware-AMO accumulate: 8 contiguous 8-byte MPI_SUM elements — an
    // AMO burst when batching is armed.
    let amo_epoch = |batch: bool| {
        measure(model, batch, |win, ctx| {
            let data = [1u8; 64];
            win.lock(LockType::Exclusive, 1).unwrap();
            let t0 = ctx.now();
            win.accumulate(&data, NumKind::U64, MpiOp::Sum, 1, 0).unwrap();
            win.flush(1).unwrap();
            let dt = ctx.now() - t0;
            win.unlock(1).unwrap();
            dt
        })
    };
    m.insert("amo_sum8_unbatched_ns".into(), amo_epoch(false));
    m.insert("amo_sum8_batched_ns".into(), amo_epoch(true));
    // One 8-byte CAS (PCAS).
    m.insert(
        "amo_cas_ns".into(),
        measure(model, false, |win, ctx| {
            win.lock(LockType::Exclusive, 1).unwrap();
            let t0 = ctx.now();
            win.compare_and_swap(7, 0, 1, 0).unwrap();
            let dt = ctx.now() - t0;
            win.unlock(1).unwrap();
            dt
        }),
    );
    // Fence epoch at p = 2 (collective: every rank participates).
    let fence = universe(2, model, false).run(|ctx| {
        let win = Win::allocate(ctx, 64, 1).unwrap();
        win.fence().unwrap();
        let t0 = ctx.now();
        win.fence().unwrap();
        let dt = ctx.now() - t0;
        win.fence_assert(fompi::ASSERT_NOSUCCEED).unwrap();
        ctx.barrier();
        dt
    });
    m.insert("fence_p2_ns".into(), fence[0]);
    // Notified put: consumer-side cost of one 8-byte `put_notify` landing
    // (producer's put retires, the notification record is matched by
    // `wait_notify`, and the consumer's clock joins the data's stamp).
    let notified = universe(2, model, false).notify_depth(16).run(|ctx| {
        let win = Win::allocate(ctx, 64, 1).unwrap();
        win.lock_all().unwrap();
        ctx.barrier();
        let t0 = ctx.now();
        let dt = if ctx.rank() == 0 {
            win.put_notify(&7u64.to_le_bytes(), 1, 0, 1).unwrap();
            0.0
        } else {
            win.wait_notify(0, 1).unwrap();
            ctx.now() - t0
        };
        win.unlock_all().unwrap();
        ctx.barrier();
        dt
    });
    m.insert("put_notify_8_ns".into(), notified[1]);
    // One `msg::channel` round over a 1-slot ring: every send after the
    // first blocks on the previous credit, so producer time / rounds is
    // the steady-state notified put + credit-record pace.
    const CHAN_ROUNDS: usize = 4;
    let chan = universe(2, model, false).notify_depth(16).run(|ctx| {
        match channel(ctx, 0, 1, 1, 64).unwrap().unwrap() {
            ChannelEnd::Sender(mut tx) => {
                let msg = [9u8; 64];
                ctx.barrier();
                let t0 = ctx.now();
                for _ in 0..CHAN_ROUNDS {
                    tx.send(&msg).unwrap();
                }
                // Absorb the final credit so whole rounds are timed.
                while tx.credits() == 0 {
                    tx.poll_credits().unwrap();
                    std::thread::yield_now();
                }
                let dt = ctx.now() - t0;
                tx.close(ctx).unwrap();
                dt / CHAN_ROUNDS as f64
            }
            ChannelEnd::Receiver(mut rx) => {
                let mut buf = [0u8; 64];
                ctx.barrier();
                for _ in 0..CHAN_ROUNDS {
                    rx.recv(&mut buf).unwrap();
                }
                rx.close(ctx).unwrap();
                0.0
            }
        }
    });
    m.insert("channel_round_64_ns".into(), chan[0]);
    // Remote-memory-channel twins. All are timed on the *sending* side
    // (or a single fixed pairing), where virtual time is schedule-
    // independent; consumer `ANY_SOURCE` drain clocks are max-joins in
    // arrival order and would not byte-stabilise.
    //
    // Fan-in over a 1-slot ring: strict data/credit alternation, so
    // producer time / rounds is the steady-state rmc round.
    const RMC_ROUNDS: usize = 4;
    let fanin_run = universe(2, model, false).notify_depth(16).run(|ctx| {
        match fompi_rmc::fanin(ctx, 0, &[1], 1, 64).unwrap().unwrap() {
            FaninEnd::Producer(mut tx) => {
                let msg = [3u8; 64];
                ctx.barrier();
                let t0 = ctx.now();
                for _ in 0..RMC_ROUNDS {
                    tx.send(&msg).unwrap();
                }
                while tx.credits() == 0 {
                    tx.poll_credits().unwrap();
                    std::thread::yield_now();
                }
                let dt = ctx.now() - t0;
                tx.close(ctx).unwrap();
                dt / RMC_ROUNDS as f64
            }
            FaninEnd::Consumer(mut rx) => {
                let mut buf = [0u8; 64];
                ctx.barrier();
                for _ in 0..RMC_ROUNDS {
                    rx.recv(&mut buf).unwrap();
                }
                rx.close(ctx).unwrap();
                0.0
            }
        }
    });
    m.insert("rmc_fanin_round_64_ns".into(), fanin_run[1]);
    // One full RPC round with a single client: the server's probe order
    // has exactly one source, so the round time is deterministic.
    let rpc_cfg = RmcConfig { slots: 4, slot_bytes: 64, ..RmcConfig::default() };
    let rpc_run =
        universe(2, model, false).notify_depth(16).run(move |ctx| {
            match fompi_rmc::rpc(ctx, 0, &[1], &rpc_cfg).unwrap().unwrap() {
                RpcEnd::Server(mut srv) => {
                    for _ in 0..RMC_ROUNDS {
                        let req = srv.recv().unwrap();
                        let rep = req.data.clone();
                        srv.reply(&req, &rep).unwrap();
                    }
                    srv.close(ctx).unwrap();
                    0.0
                }
                RpcEnd::Client(mut cl) => {
                    let req = [6u8; 64];
                    let mut rep = [0u8; 64];
                    let t0 = ctx.now();
                    for _ in 0..RMC_ROUNDS {
                        cl.call(&req, &mut rep).unwrap();
                    }
                    let dt = ctx.now() - t0;
                    cl.close(ctx).unwrap();
                    dt / RMC_ROUNDS as f64
                }
            }
        });
    m.insert("rpc_round_64_ns".into(), rpc_run[1]);
    // Transaction-layer twins: one versioned read (one list of NO_OP
    // fetches: the version, the payload, the version again) and the commit
    // phase of a 2-key transaction (lock-CAS x2, REPLACE accumulate x2,
    // flush, one list of 2 publish-CASes, flush) — read time excluded so
    // the metric isolates the commit protocol.
    let txn = universe(2, model, false).run(|ctx| {
        let win = Win::allocate(ctx, 64, 1).unwrap();
        VersionedCell::init_local(&win, 0, &7u64.to_le_bytes());
        VersionedCell::init_local(&win, 16, &9u64.to_le_bytes());
        ctx.barrier();
        win.lock_all().unwrap();
        let mut out = (0.0, 0.0);
        if ctx.rank() == 0 {
            let (a, b) = (VersionedCell::new(1, 0, 8), VersionedCell::new(1, 16, 8));
            let mut buf = [0u8; 8];
            let t0 = ctx.now();
            a.read(&win, &mut buf).unwrap();
            let read_ns = ctx.now() - t0;
            let mut txn = Txn::begin(&win);
            txn.read(a, &mut buf).unwrap();
            txn.write(a, &1u64.to_le_bytes()).unwrap();
            txn.read(b, &mut buf).unwrap();
            txn.write(b, &2u64.to_le_bytes()).unwrap();
            let t1 = ctx.now();
            txn.commit().unwrap();
            out = (read_ns, ctx.now() - t1);
        }
        win.unlock_all().unwrap();
        ctx.barrier();
        out
    });
    m.insert("txn_read_ns".into(), txn[0].0);
    m.insert("txn_commit_2key_ns".into(), txn[0].1);
    // W writers on one hot cell ([`contend`]): the cascade is exact, W
    // commits and W(W-1)/2 aborts a round, and the final value is the sum
    // of every additive delta whatever the commit order. Commit latency
    // grows with W: each loser pays backoff, re-read and re-commit.
    let mut prev = 0.0;
    for w in [1usize, 2, 4] {
        let (p, _) = contend(w, universe(2, model, false));
        let n = (TXN_ROUNDS * w) as u64;
        assert_eq!((p.commits, p.aborts), (n, n * (w as u64 - 1) / 2), "cascade at W={w}");
        assert_eq!(p.final_value, n * (n + 1) / 2, "lost update at W={w}");
        assert!(p.mean_commit_ns > prev, "commit latency must grow with contention (W={w})");
        prev = p.mean_commit_ns;
        m.insert(format!("txn_contend_w{w}_commit_ns"), p.mean_commit_ns);
    }
    // Per-item producer → consumer handoff of 8 bytes under four idioms;
    // fusing the notification into the put must beat each of the other
    // three.
    let handoffs = HANDOFFS.map(|style| (style, handoff(model, style)));
    let notified = handoffs[0].1;
    for (style, ns) in handoffs {
        assert!(style == "notified" || notified < ns, "notified ({notified}) vs {style} ({ns})");
        m.insert(format!("handoff_8_{style}_ns"), ns);
    }
    for n in [2, 4, 8] {
        m.insert(format!("rmc_fanin_{n}to1_send_ns"), fanin_send(model, n));
    }
    m
}

/// Items of one handoff run (well under the notification ring's depth).
const ITEMS: usize = 64;
/// The handoff idioms, notified first.
const HANDOFFS: [&str; 4] = ["notified", "fence", "pscw", "amo_poll"];

/// Consumer-side virtual ns per item when rank 0 hands [`ITEMS`] 8-byte
/// items to rank 1, one synchronisation per item: a notified put, a fence,
/// a PSCW epoch, or put + flush + a signal the consumer polls (the idiom
/// `put_notify` replaces).
fn handoff(model: &CostModel, style: &'static str) -> f64 {
    let got = universe(2, model, false).notify_depth(2 * ITEMS).run(move |ctx| {
        // One cell per item, then the polled signal's scratch word.
        let win = Win::allocate(ctx, 8 * (ITEMS + 1), 1).unwrap();
        let (me, mut buf) = (ctx.rank(), [0u8; 8]);
        let item = |i: usize| (i as u64).to_le_bytes();
        let dt = match style {
            "notified" => {
                win.lock_all().unwrap();
                ctx.barrier();
                let t0 = ctx.now();
                for i in 0..ITEMS {
                    if me == 0 {
                        win.put_notify(&item(i), 1, i * 8, 7).unwrap();
                    } else {
                        win.wait_notify(0, 7).unwrap();
                        win.read_local(i * 8, &mut buf);
                    }
                }
                let dt = ctx.now() - t0;
                win.unlock_all().unwrap();
                dt
            }
            "fence" => {
                win.fence().unwrap();
                let t0 = ctx.now();
                for i in 0..ITEMS {
                    if me == 0 {
                        win.put(&item(i), 1, i * 8).unwrap();
                    }
                    win.fence().unwrap();
                    if me == 1 {
                        win.read_local(i * 8, &mut buf);
                    }
                }
                let dt = ctx.now() - t0;
                win.fence().unwrap();
                dt
            }
            "pscw" => {
                ctx.barrier();
                let t0 = ctx.now();
                for i in 0..ITEMS {
                    if me == 0 {
                        win.start(&Group::new([1])).unwrap();
                        win.put(&item(i), 1, i * 8).unwrap();
                        win.complete().unwrap();
                    } else {
                        win.post(&Group::new([0])).unwrap();
                        win.wait().unwrap();
                        win.read_local(i * 8, &mut buf);
                    }
                }
                ctx.now() - t0
            }
            "amo_poll" => {
                win.lock_all().unwrap();
                ctx.barrier();
                let t0 = ctx.now();
                for i in 0..ITEMS {
                    if me == 0 {
                        win.put(&item(i), 1, i * 8).unwrap();
                        win.flush(1).unwrap();
                        win.put_signal(&1u64.to_le_bytes(), 1, ITEMS * 8, 0).unwrap();
                    } else {
                        win.signal_wait(0, (i + 1) as u64).unwrap();
                        win.read_local(i * 8, &mut buf);
                    }
                }
                let dt = ctx.now() - t0;
                win.unlock_all().unwrap();
                dt
            }
            other => unreachable!("no handoff idiom {other}"),
        };
        ctx.barrier();
        dt
    });
    got[1] / ITEMS as f64
}

/// Messages per sender of the rmc send-side rows.
const RMC_MSGS: usize = 16;
/// Payload bytes of one rmc message.
const RMC_BYTES: usize = 64;

/// `n` producers → rank 0 over rings sized so no producer waits for a
/// credit: producer 1's virtual ns per send.
fn fanin_send(model: &CostModel, n: usize) -> f64 {
    let producers: Vec<u32> = (1..=n as u32).collect();
    let got = universe(n + 1, model, false).notify_depth(256).run(move |ctx| {
        let mut buf = [0u8; RMC_BYTES];
        match fompi_rmc::fanin(ctx, 0, &producers, RMC_MSGS, RMC_BYTES).unwrap().unwrap() {
            FaninEnd::Producer(mut tx) => {
                ctx.barrier();
                let t0 = ctx.now();
                for _ in 0..RMC_MSGS {
                    tx.send(&buf).unwrap();
                }
                let dt = ctx.now() - t0;
                ctx.barrier();
                tx.close(ctx).unwrap();
                dt
            }
            FaninEnd::Consumer(mut rx) => {
                ctx.barrier();
                for _ in 0..n * RMC_MSGS {
                    rx.recv(&mut buf).unwrap();
                }
                ctx.barrier();
                rx.close(ctx).unwrap();
                0.0
            }
        }
    });
    got[1] / RMC_MSGS as f64
}

/// Flat sorted-key JSON. `f64` Display is the shortest round-trip
/// representation, so output is byte-stable for identical inputs.
fn render_json(metrics: &BTreeMap<String, f64>) -> String {
    let mut s = String::from("{\n");
    let last = metrics.len().saturating_sub(1);
    for (i, (k, v)) in metrics.iter().enumerate() {
        s.push_str(&format!("  \"{k}\": {v}{}\n", if i == last { "" } else { "," }));
    }
    s.push_str("}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn channel_and_fanin_rounds_are_bit_equal() {
        // `msg::channel` and one-producer `rmc::fanin` are façades over the
        // same lanes (`fompi::lane`), so their rounds are equal to the bit:
        // an edit that makes one façade issue an extra op fails here by name
        // instead of as two unrelated moves in the byte-diff.
        let m = collect(&CostModel::default());
        let (chan, fanin) = (m["channel_round_64_ns"], m["rmc_fanin_round_64_ns"]);
        assert_eq!(chan.to_bits(), fanin.to_bits(), "channel {chan} ns != fan-in {fanin} ns");
    }

    #[test]
    fn protocol_rounds_keep_their_order_and_their_model_twin() {
        // A fan-in round stays within 15 % of its closed form, and an RPC
        // call — a request round plus a reply — cannot beat it.
        let m = collect(&CostModel::default());
        let (fanin, rpc) = (m["rmc_fanin_round_64_ns"], m["rpc_round_64_ns"]);
        let twin = fompi::PaperModel::default().rmc_fanin_round(64, 1);
        assert!((fanin / twin - 1.0).abs() < 0.15, "fan-in {fanin} ns vs model {twin} ns");
        assert!(rpc > fanin, "rpc {rpc} ns vs fan-in {fanin} ns");
    }

    #[test]
    fn every_metric_moves_with_the_cost_model() {
        // One more ns of inter-node injection must move every metric: a
        // metric that ignores the model it is handed would stay put in the
        // byte-diff through a real model change.
        let base = collect(&CostModel::default());
        let model = CostModel {
            dmapp_inject_ns: CostModel::default().dmapp_inject_ns + 1.0,
            ..CostModel::default()
        };
        let moved = collect(&model);
        assert_eq!(base.len(), 26);
        let unmoved: Vec<&str> = base
            .iter()
            .filter(|(k, v)| moved[*k].to_bits() == v.to_bits())
            .map(|(k, _)| k.as_str())
            .collect();
        assert!(unmoved.is_empty(), "unmoved by dmapp_inject_ns + 1: {unmoved:?}");
    }
}
