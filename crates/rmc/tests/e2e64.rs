//! End-to-end acceptance: fan-in and RPC at 64 ranks,
//! race checker panicking, all six fault classes armed.
//!
//! This is the scale point the subsystem is sized for — 63 producers
//! appending to one consumer's notification ring and a served RPC rank taking
//! calls from a whole cabinet — with the fault layer injecting jitter,
//! spikes, delayed completions, backpressure (including rejected issues),
//! rank pauses and transient registration failures, and `FOMPI_RACECHECK=panic`
//! semantics turning any shadow-memory flag into an abort.

use fompi_fabric::{FaultPlan, RacecheckMode};
use fompi_rmc::{fanin, rpc, FaninEnd, RmcConfig, RpcEnd};
use fompi_runtime::Universe;

const P: usize = 64;
const MSGS: usize = 4;
const BYTES: usize = 32;

fn payload(source: u32, seq: usize) -> [u8; BYTES] {
    let mut b = [0u8; BYTES];
    b[..8].copy_from_slice(&(((source as u64) << 32) | seq as u64 | 1 << 63).to_le_bytes());
    b
}

#[test]
fn sixty_four_ranks_end_to_end_racecheck_clean_under_all_fault_classes() {
    let rc = RacecheckMode::Panic;
    let (_, fabric) = Universe::new(P)
        .node_size(8)
        .seed(64)
        .faults(FaultPlan::heavy(0))
        .racecheck(rc)
        .notify_depth(1024)
        .launch(|ctx| {
            let me = ctx.rank();

            // Phase 1: fan-in — every other rank streams into rank 0.
            let producers: Vec<u32> = (1..P as u32).collect();
            match fanin(ctx, 0, &producers, 2, BYTES).unwrap() {
                Some(FaninEnd::Producer(mut tx)) => {
                    for seq in 0..MSGS {
                        tx.send(&payload(me, seq)).unwrap();
                    }
                    ctx.barrier();
                    tx.close(ctx).unwrap();
                }
                Some(FaninEnd::Consumer(mut rx)) => {
                    let mut buf = [0u8; BYTES];
                    let mut next = vec![0usize; P];
                    for _ in 0..(P - 1) * MSGS {
                        let (src, len) = rx.recv(&mut buf).unwrap();
                        assert_eq!(len, BYTES);
                        let seq = next[src as usize];
                        assert_eq!(buf, payload(src, seq), "fan-in reorder from {src}");
                        next[src as usize] = seq + 1;
                    }
                    assert!(rx.try_recv(&mut buf).unwrap().is_none(), "consumer not dry");
                    ctx.barrier();
                    rx.close(ctx).unwrap();
                }
                None => unreachable!(),
            }

            // Phase 2: RPC — rank 0 serves calls from every other rank.
            let cfg = RmcConfig { slots: 2, slot_bytes: BYTES, ..RmcConfig::default() };
            match rpc(ctx, 0, &producers, &cfg).unwrap() {
                Some(RpcEnd::Server(mut srv)) => {
                    for _ in 0..(P - 1) * 2 {
                        let req = srv.recv().unwrap();
                        let mut rep = req.data.clone();
                        rep.iter_mut().for_each(|b| *b = b.wrapping_add(1));
                        srv.reply(&req, &rep).unwrap();
                    }
                    ctx.barrier();
                    srv.close(ctx).unwrap();
                }
                Some(RpcEnd::Client(mut cl)) => {
                    let mut buf = [0u8; BYTES];
                    for seq in 0..2 {
                        let req = payload(me, seq);
                        assert_eq!(cl.call(&req, &mut buf).unwrap(), BYTES);
                        let mut want = req;
                        want.iter_mut().for_each(|b| *b = b.wrapping_add(1));
                        assert_eq!(buf, want, "rpc reply corrupted at {me}");
                    }
                    ctx.barrier();
                    cl.close(ctx).unwrap();
                }
                None => unreachable!(),
            }
            ctx.barrier();
        });
    assert!(fabric.faults().total_injected() > 0, "heavy plan must inject");
    assert_eq!(fabric.shadow().total_flagged(), 0, "rmc must be racecheck-clean");
}
