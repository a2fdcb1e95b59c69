//! Remote-memory-channel ablation: the WIND-shaped a1–a4 scenario family
//! over `fompi-rmc`, plus one RPC round-trip point.
//!
//! ```text
//! cargo run --release -p fompi-bench --bin rmc_ablation
//! ```
//!
//! * **a1** — baseline latency: one producer, one consumer, a 1-slot
//!   fan-in ring, so every send strictly alternates with the returning
//!   credit record; producer time / messages is the steady-state channel
//!   round (model twin `rmc_fanin_round`).
//! * **a2** — fan-out: one publisher multicasting to N subscribers under
//!   `LaggingPolicy::Block` (model twin `rmc_fanout_publish`), plus a
//!   `Drop` point where the subscribers deliberately lag and the exact
//!   drop count is asserted.
//! * **a3** — fan-in: N producers into one drain-until-dry consumer.
//! * **a4** — scalability: every rank of a mesh publishes to a k-subset
//!   of peers (ring offsets), so N producers and M subscribers overlap.
//! * **rpc** — one client's request/reply round against a served rank
//!   (model twin `rpc_round`).
//!
//! Sender-side virtual times are schedule-independent (no sender ever
//! waits on a credit in the sized-ring scenarios, and a1/rpc strictly
//! alternate), so they land in `results/rmc_ablation.csv` and are
//! byte-diffed by `scripts/ci.sh`. Consumer-side drain times under
//! `ANY_SOURCE` join notification stamps in arrival order — schedule
//! *dependent* — so, like `notify_ablation`'s app rows, they print but
//! stay out of the gated CSV. The fleet's `rmc-ablate` agent
//! (`fompi_bench::fleet`) runs a2, a1 and rpc in one universe with the
//! same payloads.

use fompi::PaperModel;
use fompi_bench::fleet::{
    payload, RMC_BYTES as BYTES, RMC_MSGS as MSGS, RPC_REP as REP, RPC_REQ as REQ,
};
use fompi_fabric::FaultPlan;
use fompi_rmc::{fanin, fanout, mesh, rpc, FaninEnd, FanoutEnd, LaggingPolicy, RmcConfig, RpcEnd};
use fompi_runtime::Universe;

/// Ring slots of the RPC point.
const RPC_SLOTS: usize = 4;

/// Deterministic universe for the CSV scenarios: faults pinned off,
/// inter-node topology, notification ring sized so no overflow stall can
/// enter the numbers.
fn universe(p: usize) -> Universe {
    Universe::new(p).node_size(1).seed(1).faults(FaultPlan::disabled()).notify_depth(256)
}

/// a1: 1 producer → 1 consumer over a 1-slot ring. Returns the producer's
/// steady-state ns per round (send + returning credit).
fn a1_baseline() -> f64 {
    let got = universe(2).run(|ctx| match fanin(ctx, 1, &[0], 1, BYTES).unwrap().unwrap() {
        FaninEnd::Producer(mut tx) => {
            ctx.barrier();
            let t0 = ctx.now();
            for seq in 0..MSGS {
                tx.send(&payload(0, seq)).unwrap();
            }
            // Absorb the final credit so whole rounds are timed.
            while tx.poll_credits().unwrap() == 0 {
                std::thread::yield_now();
            }
            let dt = ctx.now() - t0;
            tx.close(ctx).unwrap();
            dt
        }
        FaninEnd::Consumer(mut rx) => {
            let mut buf = [0u8; BYTES];
            ctx.barrier();
            for seq in 0..MSGS {
                let (src, len) = rx.recv(&mut buf).unwrap();
                assert_eq!((src, len), (0, BYTES));
                assert_eq!(buf, payload(0, seq), "a1 message {seq} corrupted");
            }
            rx.close(ctx).unwrap();
            0.0
        }
    });
    got[0] / MSGS as f64
}

/// a2: 1 publisher → n subscribers, `Block`, rings sized so the publisher
/// never waits. Returns the publisher's mean ns per multicast.
fn a2_fanout(n: usize) -> f64 {
    let subs: Vec<u32> = (1..=n as u32).collect();
    let got = universe(n + 1).run(move |ctx| {
        match fanout(ctx, 0, &subs, MSGS, BYTES, LaggingPolicy::Block).unwrap().unwrap() {
            FanoutEnd::Publisher(mut tx) => {
                ctx.barrier();
                let t0 = ctx.now();
                for seq in 0..MSGS {
                    assert_eq!(tx.publish(&payload(0, seq)).unwrap(), subs.len());
                }
                let dt = ctx.now() - t0;
                assert_eq!(tx.dropped_total(), 0);
                ctx.barrier();
                tx.close(ctx).unwrap();
                dt
            }
            FanoutEnd::Subscriber(mut rx) => {
                let mut buf = [0u8; BYTES];
                ctx.barrier();
                for seq in 0..MSGS {
                    assert_eq!(rx.recv(&mut buf).unwrap(), BYTES);
                    assert_eq!(buf, payload(0, seq), "a2 multicast {seq} corrupted");
                }
                ctx.barrier();
                rx.close(ctx).unwrap();
                0.0
            }
        }
    });
    got[0] / MSGS as f64
}

/// a2 drop point: 2 deliberately lagging subscribers (no recv until the
/// publisher is done), 4-slot rings. Returns (publisher mean ns,
/// delivered, dropped) — the counts are exact: the first 4 publications
/// land, every later one finds zero credits and is dropped.
fn a2_fanout_drop() -> (f64, u64, u64) {
    const SLOTS: usize = 4;
    let got = universe(3).run(|ctx| {
        match fanout(ctx, 0, &[1, 2], SLOTS, BYTES, LaggingPolicy::Drop).unwrap().unwrap() {
            FanoutEnd::Publisher(mut tx) => {
                ctx.barrier();
                let t0 = ctx.now();
                let mut delivered = 0u64;
                for seq in 0..MSGS {
                    delivered += tx.publish(&payload(0, seq)).unwrap() as u64;
                }
                let dt = ctx.now() - t0;
                let dropped = tx.dropped_total();
                ctx.barrier(); // subscribers start draining only now
                ctx.barrier();
                tx.close(ctx).unwrap();
                (dt, delivered, dropped)
            }
            FanoutEnd::Subscriber(mut rx) => {
                let mut buf = [0u8; BYTES];
                ctx.barrier();
                ctx.barrier();
                // Lagged the whole run: exactly the first SLOTS messages
                // survive, in order.
                for seq in 0..SLOTS {
                    assert_eq!(rx.recv(&mut buf).unwrap(), BYTES);
                    assert_eq!(buf, payload(0, seq), "a2-drop kept the wrong message");
                }
                ctx.barrier();
                rx.close(ctx).unwrap();
                (0.0, 0, 0)
            }
        }
    });
    (got[0].0 / MSGS as f64, got[0].1, got[0].2)
}

/// a3: n producers → 1 consumer, rings sized so no producer ever waits.
/// Returns (producer-1 mean send ns, consumer drain ns — the latter is
/// schedule-dependent and must stay out of the CSV).
fn a3_fanin(n: usize) -> (f64, f64) {
    let producers: Vec<u32> = (1..=n as u32).collect();
    let got = universe(n + 1).run(move |ctx| {
        match fanin(ctx, 0, &producers, MSGS, BYTES).unwrap() {
            Some(FaninEnd::Producer(mut tx)) => {
                let me = ctx.rank();
                ctx.barrier();
                let t0 = ctx.now();
                for seq in 0..MSGS {
                    tx.send(&payload(me, seq)).unwrap();
                }
                let dt = ctx.now() - t0;
                ctx.barrier();
                tx.close(ctx).unwrap();
                dt
            }
            Some(FaninEnd::Consumer(mut rx)) => {
                let mut buf = [0u8; BYTES];
                let mut next = vec![0usize; n + 1];
                ctx.barrier();
                let t0 = ctx.now();
                for _ in 0..n * MSGS {
                    let (src, len) = rx.recv(&mut buf).unwrap();
                    assert_eq!(len, BYTES);
                    // Per-producer FIFO: slots recycle strictly in order.
                    let seq = next[src as usize];
                    assert_eq!(buf, payload(src, seq), "a3 out-of-order from rank {src}");
                    next[src as usize] = seq + 1;
                }
                let dt = ctx.now() - t0;
                assert!(rx.try_recv(&mut buf).unwrap().is_none(), "a3 consumer not dry");
                ctx.barrier();
                rx.close(ctx).unwrap();
                dt
            }
            None => unreachable!("every rank participates"),
        }
    });
    (got[1] / MSGS as f64, got[0] / (n * MSGS) as f64)
}

/// a4 connectivity: rank `s` publishes to its next `k` ring neighbours.
fn a4_targets(s: u32, p: usize, k: usize) -> Vec<u32> {
    (1..=k as u32).map(|d| (s + d) % p as u32).collect()
}

/// a4: p-rank mesh, each rank sending `per_target` messages to a k-subset
/// of peers. Returns (rank-0 mean send ns, per-rank drain ns max —
/// schedule-dependent). Sized rings (`per_target <= slots`) keep the
/// send side wait-free.
fn a4_mesh(p: usize, k: usize, per_target: usize) -> (f64, f64) {
    let cfg = RmcConfig { slots: 8, slot_bytes: BYTES, ..RmcConfig::default() };
    assert!(per_target <= cfg.slots);
    let got = universe(p).run(move |ctx| {
        let me = ctx.rank();
        let mut m = mesh(ctx, &cfg).unwrap();
        ctx.barrier();
        let t0 = ctx.now();
        for seq in 0..per_target {
            for &t in &a4_targets(me, p, k) {
                m.send(t, &payload(me, seq * p + t as usize)).unwrap();
            }
        }
        let send_ns = ctx.now() - t0;
        // Drain: every rank knows exactly who publishes to it.
        let sources: Vec<u32> =
            (0..p as u32).filter(|&s| a4_targets(s, p, k).contains(&me)).collect();
        let mut next = vec![0usize; p];
        let mut buf = [0u8; BYTES];
        let t1 = ctx.now();
        for _ in 0..sources.len() * per_target {
            let (src, len) = m.recv(&mut buf).unwrap();
            assert_eq!(len, BYTES);
            assert!(sources.contains(&src), "a4: message from non-neighbour {src}");
            let seq = next[src as usize];
            assert_eq!(buf, payload(src, seq * p + me as usize), "a4 out-of-order from {src}");
            next[src as usize] = seq + 1;
        }
        let drain_ns = ctx.now() - t1;
        // Dry means no *data* record left; peers' lazy credit returns may
        // already sit in the notification ring.
        assert!(m.try_recv(&mut buf).unwrap().is_none(), "a4 mesh not dry");
        m.flush_credits().unwrap();
        ctx.barrier();
        m.close(ctx).unwrap();
        (send_ns, drain_ns)
    });
    let sends = (k * per_target) as f64;
    (got[0].0 / sends, got.iter().map(|r| r.1).fold(0.0, f64::max))
}

/// rpc: one client round-tripping against a served rank. Returns the
/// client's mean ns per call (request + service + reply).
fn rpc_point() -> f64 {
    let cfg = RmcConfig { slots: RPC_SLOTS, slot_bytes: REP.max(REQ), ..RmcConfig::default() };
    let got = universe(2).run(move |ctx| match rpc(ctx, 0, &[1], &cfg).unwrap().unwrap() {
        RpcEnd::Server(mut srv) => {
            ctx.barrier();
            for _ in 0..MSGS {
                let req = srv.recv().unwrap();
                assert_eq!(req.data.len(), REQ);
                // Service: echo the request doubled into a REP-byte reply.
                let mut rep = [0u8; REP];
                for (i, b) in req.data.iter().enumerate() {
                    rep[i] = b.wrapping_mul(2);
                }
                srv.reply(&req, &rep).unwrap();
            }
            ctx.barrier();
            srv.close(ctx).unwrap();
            0.0
        }
        RpcEnd::Client(mut cl) => {
            let mut buf = [0u8; REP];
            ctx.barrier();
            let t0 = ctx.now();
            for seq in 0..MSGS {
                let req = [seq as u8 + 1; REQ];
                assert_eq!(cl.call(&req, &mut buf).unwrap(), REP);
                assert_eq!(buf[REQ - 1], (seq as u8 + 1).wrapping_mul(2), "rpc reply wrong");
            }
            let dt = ctx.now() - t0;
            ctx.barrier();
            cl.close(ctx).unwrap();
            dt
        }
    });
    got[1] / MSGS as f64
}

fn main() {
    let model = PaperModel::default();
    println!("== rmc ablation: WIND a1–a4 + rpc, {BYTES}-byte messages ==\n");
    let mut rows = vec!["scenario,p,slots,slot_bytes,msgs,delivered,dropped,ns,model_ns".into()];

    let a1 = a1_baseline();
    let m1 = model.rmc_fanin_round(BYTES, 1);
    println!("  a1 baseline    1→1 : {a1:>9.1} ns/round   (model {m1:.1})");
    assert!((a1 / m1 - 1.0).abs() < 0.15, "a1 ({a1}) drifted far from its model twin ({m1})");
    rows.push(format!("a1_baseline,2,1,{BYTES},{MSGS},{MSGS},0,{a1},{m1}"));

    let mut prev = 0.0;
    for n in [2usize, 4, 8] {
        let a2 = a2_fanout(n);
        let m2 = model.rmc_fanout_publish(n, BYTES);
        println!("  a2 fan-out    1→{n} : {a2:>9.1} ns/publish (model {m2:.1})");
        assert!(a2 > prev, "fan-out cost must grow with the subscriber count (n={n})");
        assert!(a2 < n as f64 * a1, "fan-out must amortise over a1 rounds per subscriber (n={n})");
        prev = a2;
        rows.push(format!(
            "a2_fanout_{n},{},{MSGS},{BYTES},{MSGS},{},0,{a2},{m2}",
            n + 1,
            n * MSGS
        ));
    }

    let (a2d, delivered, dropped) = a2_fanout_drop();
    println!(
        "  a2 drop       1→2 : {a2d:>9.1} ns/publish ({delivered} delivered, {dropped} dropped)"
    );
    assert_eq!(delivered, 2 * 4, "drop point: exactly the ring capacity is delivered");
    assert_eq!(dropped, 2 * (MSGS as u64 - 4), "drop point: every later publish is counted");
    rows.push(format!("a2_fanout_drop,3,4,{BYTES},{MSGS},{delivered},{dropped},{a2d},"));

    for n in [2usize, 4, 8] {
        let (send, drain) = a3_fanin(n);
        println!(
            "  a3 fan-in     {n}→1 : {send:>9.1} ns/send    (drain {drain:.1} ns/msg, schedule-dependent)"
        );
        rows.push(format!("a3_fanin_{n},{},{MSGS},{BYTES},{MSGS},{},0,{send},", n + 1, n * MSGS));
    }

    for p in [4usize, 8] {
        let (send, drain) = a4_mesh(p, 2, 4);
        let delivered = p * 2 * 4;
        println!(
            "  a4 mesh      p={p}  : {send:>9.1} ns/send    (drain {drain:.1} ns/msg, schedule-dependent)"
        );
        rows.push(format!("a4_mesh_p{p},{p},8,{BYTES},8,{delivered},0,{send},"));
    }

    let r = rpc_point();
    let mr = model.rpc_round(REQ, REP, RPC_SLOTS);
    println!("  rpc           1→1 : {r:>9.1} ns/call    (model {mr:.1})");
    assert!(r > a1, "an rpc call is a request round plus a reply round; it cannot beat a1");
    rows.push(format!("rpc_1client,2,{RPC_SLOTS},{},{MSGS},{MSGS},0,{r},{mr}", REP.max(REQ)));

    std::fs::create_dir_all("results").ok();
    std::fs::write("results/rmc_ablation.csv", rows.join("\n") + "\n").expect("write csv");
    println!("\n  -> results/rmc_ablation.csv");
}
