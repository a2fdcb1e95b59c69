//! Notified-access ablation: what does fusing the completion notification
//! into the RMA operation buy over the classical synchronisation idioms?
//!
//! ```text
//! cargo run --release -p fompi-bench --bin notify_ablation
//! ```
//!
//! 1. **micro**: a producer hands 64 8-byte items to a consumer, one
//!    synchronisation action per item, under four styles — notified put
//!    (`put_notify`/`wait_notify`), a fence per item, a PSCW epoch per
//!    item, and the put + flush + flag-AMO idiom the consumer polls
//!    (`put_signal`/`signal_wait`);
//! 2. **channel**: one `msg::channel` round over a 1-slot ring — a
//!    notified payload put strictly alternating with the credit record
//!    flowing back;
//! 3. **apps**: DSDE notified vs the fence-synchronised accumulate
//!    protocol, and the hashtable's owner-computes notified backend vs
//!    the CAS/FAA polling backend.
//!
//! Sections 1–2 are schedule-independent, so their rows land in
//! `results/notify_ablation.csv` and are byte-diffed by `scripts/ci.sh`
//! under `FOMPI_SEED=1`. The app protocols serialise contended AMOs in
//! arrival order, which makes their virtual times schedule-dependent —
//! they print and are asserted relationally (notified must win) but stay
//! out of the gated CSV, the same split `drift_sched.csv` uses.

use fompi::{PaperModel, Win};
use fompi_apps::dsde;
use fompi_apps::hashtable::{self, HtConfig};
use fompi_fabric::FaultPlan;
use fompi_msg::channel::{channel, ChannelEnd};
use fompi_runtime::{Group, Universe};

/// Items per micro handoff run (well under the sized notification ring).
const ITEMS: usize = 64;
const TAG: u32 = 7;

fn main() {
    println!("== notified access ablation ==\n");
    let model = PaperModel::default();

    println!("--- per-item producer→consumer handoff, 8-byte payload (p=2, inter-node) ---");
    let notified = handoff("notified");
    let fence = handoff("fence");
    let pscw = handoff("pscw");
    let amo_poll = handoff("amo_poll");
    let m_notified = model.put_notified(8);
    let m_polled = model.put_polled(8);
    println!("  notified : {notified:>9.1} ns/item   (model {m_notified:.1})");
    println!("  fence    : {fence:>9.1} ns/item");
    println!("  pscw     : {pscw:>9.1} ns/item");
    println!("  amo_poll : {amo_poll:>9.1} ns/item   (model {m_polled:.1})");
    println!(
        "  notified wins {:.1}x over fence, {:.1}x over pscw, {:.1}x over amo_poll\n",
        fence / notified,
        pscw / notified,
        amo_poll / notified
    );
    assert!(notified < fence, "notified ({notified}) must beat fence-per-item ({fence})");
    assert!(notified < pscw, "notified ({notified}) must beat PSCW-per-item ({pscw})");
    assert!(notified < amo_poll, "notified ({notified}) must beat flag polling ({amo_poll})");

    println!("--- channel round: 1-slot msg::channel, 64-byte payload (p=2, inter-node) ---");
    let chan = channel_round();
    let m_chan = model.channel_round(64, 1);
    println!("  measured : {chan:>9.1} ns/round  (model {m_chan:.1})\n");

    let mut rows = vec!["section,variant,ns,model_ns".to_string()];
    rows.push(format!("micro_handoff_8B,notified,{notified},{m_notified}"));
    rows.push(format!("micro_handoff_8B,fence,{fence},"));
    rows.push(format!("micro_handoff_8B,pscw,{pscw},"));
    rows.push(format!("micro_handoff_8B,amo_poll,{amo_poll},{m_polled}"));
    rows.push(format!("channel_round_64B,notified,{chan},{m_chan}"));
    std::fs::create_dir_all("results").ok();
    std::fs::write("results/notify_ablation.csv", rows.join("\n") + "\n").expect("write csv");
    println!("  -> results/notify_ablation.csv\n");

    dsde_rows();
    hashtable_rows();
}

/// Deterministic 2-rank universe for the micro sections: faults off,
/// batching off, ring sized so no overflow stall can enter the numbers.
fn universe() -> Universe {
    Universe::new(2)
        .node_size(1)
        .seed(1)
        .faults(FaultPlan::disabled())
        .batch(false)
        .notify_depth(2 * ITEMS)
}

/// Consumer-side virtual ns per item for one handoff style.
fn handoff(variant: &str) -> f64 {
    let v = variant.to_string();
    let got = universe().run(move |ctx| {
        // One 8-byte cell per item plus a trailing scratch word for the
        // polled-flag variant's signal payload.
        let win = Win::allocate(ctx, 8 * (ITEMS + 1), 1).unwrap();
        let me = ctx.rank();
        let mut buf = [0u8; 8];
        let dt = match v.as_str() {
            "notified" => {
                win.lock_all().unwrap();
                ctx.barrier();
                let t0 = ctx.now();
                for i in 0..ITEMS {
                    if me == 0 {
                        win.put_notify(&(i as u64).to_le_bytes(), 1, i * 8, TAG).unwrap();
                    } else {
                        win.wait_notify(0, TAG).unwrap();
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
                        win.put(&(i as u64).to_le_bytes(), 1, i * 8).unwrap();
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
                        win.put(&(i as u64).to_le_bytes(), 1, i * 8).unwrap();
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
                // The classic pre-notified idiom: put the data, *flush*,
                // then raise a flag the consumer polls. The signal slot
                // plays the flag; the explicit flush in between is what
                // `put_notify` removes (its notification rides the DMAPP
                // ordered class instead).
                win.lock_all().unwrap();
                ctx.barrier();
                let t0 = ctx.now();
                for i in 0..ITEMS {
                    if me == 0 {
                        win.put(&(i as u64).to_le_bytes(), 1, i * 8).unwrap();
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
            other => unreachable!("unknown variant {other}"),
        };
        ctx.barrier();
        dt
    });
    got[1] / ITEMS as f64
}

/// Producer-side virtual ns per message over a 1-slot channel: every send
/// after the first blocks on the previous credit, so the steady-state pace
/// *is* the notified put + credit-record round.
fn channel_round() -> f64 {
    const MSGS: usize = 16;
    let got = universe().run(move |ctx| {
        let end = channel(ctx, 0, 1, 1, 64).unwrap().unwrap();
        match end {
            ChannelEnd::Sender(mut tx) => {
                let msg = [3u8; 64];
                ctx.barrier();
                let t0 = ctx.now();
                for _ in 0..MSGS {
                    tx.send(&msg).unwrap();
                }
                // The last send's credit is still outstanding; absorb it so
                // the measurement covers whole rounds.
                while tx.credits() == 0 {
                    tx.poll_credits().unwrap();
                    std::thread::yield_now();
                }
                let dt = ctx.now() - t0;
                tx.close(ctx).unwrap();
                dt
            }
            ChannelEnd::Receiver(mut rx) => {
                let mut buf = [0u8; 64];
                ctx.barrier();
                for _ in 0..MSGS {
                    rx.recv(&mut buf).unwrap();
                }
                rx.close(ctx).unwrap();
                0.0
            }
        }
    });
    got[0] / MSGS as f64
}

/// DSDE: notified access vs the fence-synchronised accumulate protocol.
fn dsde_rows() {
    println!("--- DSDE, p=8, k=3 (schedule-dependent; not in the gated CSV) ---");
    let (p, k, seed) = (8usize, 3usize, 5u64);
    let fence =
        Universe::new(p).node_size(2).seed(1).faults(FaultPlan::disabled()).run(move |ctx| {
            let win = Win::allocate(ctx, dsde::rma_win_bytes(p), 1).expect("win");
            dsde::run_rma(ctx, &win, k, seed)
        });
    let notified =
        Universe::new(p).node_size(2).seed(1).faults(FaultPlan::disabled()).notify_depth(64).run(
            move |ctx| {
                let win = Win::allocate(ctx, dsde::rma_win_bytes(p), 1).expect("win");
                dsde::run_notified(ctx, &win, k, seed)
            },
        );
    let t = |r: &[dsde::DsdeResult]| r.iter().map(|x| x.time_ns).fold(0.0, f64::max);
    let (tf, tn) = (t(&fence), t(&notified));
    println!("  fence    : {:>9.1} us", tf / 1e3);
    println!("  notified : {:>9.1} us   ({:.2}x)\n", tn / 1e3, tf / tn);
    assert!(tn < tf, "notified DSDE ({tn} ns) must beat the fence protocol ({tf} ns)");
}

/// Hashtable: owner-computes notified backend vs CAS/FAA polling.
fn hashtable_rows() {
    println!("--- hashtable, p=8, collision-heavy (schedule-dependent; not in the gated CSV) ---");
    let cfg = HtConfig { inserts_per_rank: 128, table_slots: 16, heap_cells: 4096, seed: 5 };
    let p = 8;
    let polling = Universe::new(p)
        .node_size(2)
        .seed(1)
        .faults(FaultPlan::disabled())
        .run(move |ctx| hashtable::run_rma(ctx, &cfg));
    let notified = Universe::new(p)
        .node_size(2)
        .seed(1)
        .faults(FaultPlan::disabled())
        .notify_depth(2048)
        .run(move |ctx| hashtable::run_notified(ctx, &cfg));
    let t = |r: &[hashtable::HtResult]| r.iter().map(|x| x.time_ns).fold(0.0, f64::max);
    let (tp, tn) = (t(&polling), t(&notified));
    let total: usize = notified.iter().map(|r| r.local_elements).sum();
    assert_eq!(total, p * cfg.inserts_per_rank, "notified backend lost elements");
    println!("  amo_poll : {:>9.1} us   (CAS insert + FAA/chain on collision)", tp / 1e3);
    println!("  notified : {:>9.1} us   ({:.2}x)\n", tn / 1e3, tp / tn);
    assert!(tn < tp, "notified inserts ({tn} ns) must beat AMO polling ({tp} ns)");
}
