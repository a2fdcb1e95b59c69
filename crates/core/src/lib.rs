//! # fompi — scalable MPI-3 One Sided over RDMA
//!
//! A Rust reproduction of **foMPI** ("fast one-sided MPI"), the MPI-3.0 RMA
//! implementation of *Gerstenberger, Besta, Hoefler: Enabling
//! Highly-Scalable Remote Memory Access Programming with MPI-3 One Sided*
//! (SC'13). The library implements the paper's scalable, bufferless
//! protocols — O(log p) time and space per process — on top of the
//! simulated DMAPP/XPMEM fabric in `fompi-fabric`:
//!
//! * **window creation** (§2.2): traditional, allocated (symmetric heap),
//!   dynamic (one-sided cached region tables) and shared-memory windows —
//!   [`Win`];
//! * **synchronisation** (§2.3): fence, general active target (PSCW) with
//!   the remote free-storage matching protocol of Figure 2, the two-level
//!   lock hierarchy of Figure 3, and the flush family;
//! * **communication** (§2.4): put/get (implicit-nonblocking, bulk
//!   completed), accumulates with hardware-AMO and lock-fallback paths,
//!   fetch-and-op, compare-and-swap, request-based variants, and full MPI
//!   derived-datatype support via the flattening engine in [`dtype`];
//! * **performance models** (§3): the paper's closed-form cost functions in
//!   [`perf`].
//!
//! ## Quickstart
//!
//! ```
//! use fompi_runtime::Universe;
//! use fompi::Win;
//!
//! // 4 ranks, 2 per node: ranks 0-1 talk over XPMEM, 0-2 over DMAPP.
//! let sums = Universe::new(4).node_size(2).run(|ctx| {
//!     let win = Win::allocate(ctx, 1024, 1).unwrap();
//!     win.fence().unwrap();
//!     // Everyone puts its rank (as one u64) into the right neighbour.
//!     let next = (ctx.rank() + 1) % 4;
//!     win.put(&(ctx.rank() as u64).to_le_bytes(), next, 0).unwrap();
//!     win.fence().unwrap();
//!     let mut got = [0u8; 8];
//!     win.read_local(0, &mut got);
//!     u64::from_le_bytes(got)
//! });
//! assert_eq!(sums, vec![3, 0, 1, 2]);
//! ```

pub mod comm;
pub mod dtype;
pub mod dynamic;
pub mod error;
pub mod lane;
pub mod meta;
pub mod op;
pub mod perf;
pub mod racecheck;
pub mod request;
pub mod sync;
pub mod win;

pub use dtype::DataType;
pub use error::{FompiError, Result};
pub use fompi_fabric::FetchAmo;
pub use meta::WinConfig;
pub use op::{MpiOp, NumKind};
pub use perf::PaperModel;
pub use request::{wait_all, Request};
pub use sync::fence::{ASSERT_NOPRECEDE, ASSERT_NOPUT, ASSERT_NOSTORE, ASSERT_NOSUCCEED};
pub use sync::notify::{ANY_SOURCE, ANY_TAG};
pub use win::{LockType, SizeInfo, Win, WinKind};

/// A matched notification record (re-exported from the fabric): who sent
/// it, with what tag, how many bytes the notified operation moved, and
/// the virtual time it became visible.
pub use fompi_fabric::NotifyRecord as Notification;

#[cfg(test)]
mod tests {
    use super::*;
    use fompi_runtime::{Group, Universe};

    #[test]
    fn fence_put_roundtrip() {
        let got = Universe::new(4).node_size(2).run(|ctx| {
            let win = Win::allocate(ctx, 64, 1).unwrap();
            win.fence().unwrap();
            let next = (ctx.rank() + 1) % 4;
            win.put(&[ctx.rank() as u8 + 1; 8], next, 0).unwrap();
            win.fence().unwrap();
            let mut b = [0u8; 8];
            win.read_local(0, &mut b);
            b[0]
        });
        assert_eq!(got, vec![4, 1, 2, 3]);
    }

    #[test]
    fn get_after_fence_reads_remote() {
        let got = Universe::new(3).node_size(1).run(|ctx| {
            let win = Win::allocate(ctx, 16, 1).unwrap();
            win.write_local(0, &[ctx.rank() as u8 * 7; 16]);
            win.fence().unwrap();
            let mut b = [0u8; 16];
            let prev = (ctx.rank() + 2) % 3;
            win.get(&mut b, prev, 0).unwrap();
            win.fence().unwrap();
            b[5]
        });
        assert_eq!(got, vec![14, 0, 7]);
    }

    #[test]
    fn lock_flush_put() {
        let got = Universe::new(2).node_size(1).run(|ctx| {
            let win = Win::allocate(ctx, 64, 8).unwrap();
            if ctx.rank() == 0 {
                win.lock(LockType::Exclusive, 1).unwrap();
                win.put(&123u64.to_le_bytes(), 1, 2).unwrap(); // disp unit 8
                win.flush(1).unwrap();
                win.unlock(1).unwrap();
            }
            ctx.barrier();
            let mut b = [0u8; 8];
            win.read_local(16, &mut b);
            u64::from_le_bytes(b)
        });
        assert_eq!(got[1], 123);
    }

    #[test]
    fn pscw_ring() {
        let p = 4;
        let got = Universe::new(p).node_size(2).run(|ctx| {
            let win = Win::allocate(ctx, 64, 1).unwrap();
            let me = ctx.rank();
            let left = (me + p as u32 - 1) % p as u32;
            let right = (me + 1) % p as u32;
            // Exposure to both neighbours; access to both neighbours.
            win.post(&Group::new([left, right])).unwrap();
            win.start(&Group::new([left, right])).unwrap();
            win.put(&[me as u8 + 1; 4], right, 0).unwrap();
            win.put(&[me as u8 + 101; 4], left, 4).unwrap();
            win.complete().unwrap();
            win.wait().unwrap();
            let mut lo = [0u8; 4];
            let mut hi = [0u8; 4];
            win.read_local(0, &mut lo);
            win.read_local(4, &mut hi);
            (lo[0], hi[0])
        });
        for (r, &(lo, hi)) in got.iter().enumerate() {
            let left = (r + p - 1) % p;
            let right = (r + 1) % p;
            assert_eq!(lo as usize, left + 1, "rank {r} left put");
            assert_eq!(hi as usize, right + 101, "rank {r} right put");
        }
    }

    #[test]
    fn accumulate_sum_hw_path() {
        let got = Universe::new(4).node_size(2).run(|ctx| {
            let win = Win::allocate(ctx, 32, 1).unwrap();
            win.fence().unwrap();
            // Everyone adds (rank+1) into rank 0's first element.
            win.accumulate(&(ctx.rank() as u64 + 1).to_le_bytes(), NumKind::U64, MpiOp::Sum, 0, 0)
                .unwrap();
            win.fence().unwrap();
            let mut b = [0u8; 8];
            win.read_local(0, &mut b);
            u64::from_le_bytes(b)
        });
        assert_eq!(got[0], 1 + 2 + 3 + 4);
    }

    #[test]
    fn accumulate_min_fallback_path() {
        let got = Universe::new(4).node_size(4).run(|ctx| {
            let win = Win::allocate(ctx, 32, 1).unwrap();
            win.write_local(0, &i64::MAX.to_le_bytes());
            win.fence().unwrap();
            let v = (ctx.rank() as i64 + 1) * 10;
            win.accumulate(&v.to_le_bytes(), NumKind::I64, MpiOp::Min, 0, 0).unwrap();
            win.fence().unwrap();
            let mut b = [0u8; 8];
            win.read_local(0, &mut b);
            i64::from_le_bytes(b)
        });
        assert_eq!(got[0], 10);
    }

    #[test]
    fn fetch_and_op_counts_atomically() {
        let got = Universe::new(8).node_size(4).run(|ctx| {
            let win = Win::allocate(ctx, 16, 1).unwrap();
            win.lock_all().unwrap();
            let mut slots = Vec::new();
            for _ in 0..4 {
                let mut old = [0u8; 8];
                win.fetch_and_op(&1u64.to_le_bytes(), &mut old, NumKind::U64, MpiOp::Sum, 0, 0)
                    .unwrap();
                slots.push(u64::from_le_bytes(old));
            }
            win.unlock_all().unwrap();
            ctx.barrier();
            let mut b = [0u8; 8];
            win.read_local(0, &mut b);
            (slots, u64::from_le_bytes(b))
        });
        // Every fetched value unique; final count = 32.
        let mut seen: Vec<u64> = got.iter().flat_map(|(s, _)| s.clone()).collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..32).collect::<Vec<_>>());
        assert_eq!(got[0].1, 32);
    }

    #[test]
    fn compare_and_swap_single_winner() {
        let got = Universe::new(6).node_size(3).run(|ctx| {
            let win = Win::allocate(ctx, 16, 1).unwrap();
            win.lock_all().unwrap();
            let old = win.compare_and_swap(ctx.rank() as u64 + 1, 0, 0, 0).unwrap();
            win.unlock_all().unwrap();
            ctx.barrier();
            old
        });
        // Exactly one rank saw 0 (the winner).
        assert_eq!(got.iter().filter(|&&o| o == 0).count(), 1);
    }

    #[test]
    fn communication_without_epoch_fails() {
        let errs = Universe::new(2).node_size(2).run(|ctx| {
            let win = Win::allocate(ctx, 8, 1).unwrap();
            let r = win.put(&[1u8; 4], (ctx.rank() + 1) % 2, 0);
            ctx.barrier();
            r.is_err()
        });
        assert!(errs.iter().all(|&e| e));
    }

    #[test]
    fn dynamic_window_attach_put_detach() {
        let got = Universe::new(2).node_size(1).run(|ctx| {
            let win = Win::create_dynamic(ctx).unwrap();
            // Rank 1 attaches and publishes its address via allgather.
            let addr = if ctx.rank() == 1 { win.attach(256).unwrap() } else { 0 };
            let addrs = ctx.allgather(&addr.to_le_bytes());
            let raddr = u64::from_le_bytes(addrs[1].as_slice().try_into().unwrap());
            if ctx.rank() == 0 {
                win.lock(LockType::Exclusive, 1).unwrap();
                win.put(&[0xAB; 16], 1, raddr as usize).unwrap();
                win.flush(1).unwrap();
                win.unlock(1).unwrap();
            }
            ctx.barrier();
            let out = if ctx.rank() == 1 {
                let mut b = [0u8; 16];
                win.region_read(raddr, 0, &mut b).unwrap();
                b[7]
            } else {
                0
            };
            ctx.barrier();
            if ctx.rank() == 1 {
                win.detach(raddr).unwrap();
            }
            ctx.barrier();
            // After detach, access must fail (fresh resolve).
            let err = if ctx.rank() == 0 {
                win.lock(LockType::Shared, 1).unwrap();
                let e = win.put(&[1u8; 4], 1, raddr as usize).is_err();
                win.unlock(1).unwrap();
                e
            } else {
                true
            };
            (out, err)
        });
        assert_eq!(got[1].0, 0xAB);
        assert!(got[0].1);
    }

    #[test]
    fn traditional_window_has_linear_metadata() {
        let sizes = Universe::new(8).node_size(4).run(|ctx| {
            let create = Win::create(ctx, 64, 1).unwrap();
            let alloc = Win::allocate(ctx, 64, 1).unwrap();
            (create.metadata_bytes(), alloc.metadata_bytes())
        });
        let (c, a) = sizes[0];
        assert!(c > a, "traditional windows must store per-target descriptors");
    }

    #[test]
    fn shared_window_direct_access() {
        let got = Universe::new(4).node_size(4).run(|ctx| {
            let win = Win::allocate_shared(ctx, 64, 1).unwrap();
            win.fence().unwrap();
            // Rank 0 writes into rank 3's memory with plain stores.
            if ctx.rank() == 0 {
                let view = win.shared_query(3).unwrap();
                view.store_bytes(0, &[0x5A; 8]);
            }
            ctx.barrier();
            let mut b = [0u8; 8];
            win.read_local(0, &mut b);
            b[0]
        });
        assert_eq!(got[3], 0x5A);
    }

    #[test]
    fn shared_window_rejected_across_nodes() {
        let errs = Universe::new(4)
            .node_size(2)
            .run(|ctx| matches!(Win::allocate_shared(ctx, 64, 1), Err(FompiError::NotShareable)));
        assert!(errs.iter().all(|&e| e));
    }

    #[test]
    fn rput_request_completes() {
        let got = Universe::new(2).node_size(1).run(|ctx| {
            let win = Win::allocate(ctx, 32, 1).unwrap();
            if ctx.rank() == 0 {
                win.lock(LockType::Shared, 1).unwrap();
                let mut req = win.rput(&[7u8; 8], 1, 0).unwrap();
                req.wait();
                win.unlock(1).unwrap();
            }
            ctx.barrier();
            let mut b = [0u8; 8];
            win.read_local(0, &mut b);
            b[0]
        });
        assert_eq!(got[1], 7);
    }

    #[test]
    fn typed_put_vector_to_contiguous() {
        let got = Universe::new(2).node_size(2).run(|ctx| {
            let win = Win::allocate(ctx, 64, 1).unwrap();
            win.fence().unwrap();
            if ctx.rank() == 0 {
                // Origin: every second byte of 8; target: contiguous 4.
                let src: Vec<u8> = (10..18).collect();
                let oty = DataType::vector(4, 1, 2, DataType::byte());
                let tty = DataType::contiguous(4, DataType::byte());
                win.put_typed(&src, 1, &oty, 1, 0, 1, &tty).unwrap();
            }
            win.fence().unwrap();
            let mut b = [0u8; 4];
            win.read_local(0, &mut b);
            b
        });
        assert_eq!(got[1], [10, 12, 14, 16]);
    }

    #[test]
    fn lock_nocheck_is_free_and_functional() {
        let got = Universe::new(2).node_size(1).run(|ctx| {
            let win = Win::allocate(ctx, 32, 1).unwrap();
            ctx.barrier();
            let mut ops = 0;
            if ctx.rank() == 0 {
                let before = ctx.fabric().counters().snapshot();
                win.lock_assert(LockType::Exclusive, 1, sync::lock::ASSERT_NOCHECK).unwrap();
                let after = ctx.fabric().counters().snapshot();
                ops = after.since(&before).amos;
                win.put(&[5u8; 8], 1, 0).unwrap();
                win.flush(1).unwrap();
                win.unlock(1).unwrap();
            }
            ctx.barrier();
            let mut b = [0u8; 8];
            win.read_local(0, &mut b);
            (ops, b[0])
        });
        assert_eq!(got[0].0, 0, "NOCHECK lock must send zero protocol AMOs");
        assert_eq!(got[1].1, 5);
    }

    #[test]
    fn accumulate_typed_strided_sum() {
        let got = Universe::new(2).node_size(1).run(|ctx| {
            let win = Win::allocate(ctx, 64, 1).unwrap();
            // Target holds 4 u64 = [10, 20, 30, 40].
            for (i, v) in [10u64, 20, 30, 40].iter().enumerate() {
                win.write_local(i * 8, &v.to_le_bytes());
            }
            win.fence().unwrap();
            if ctx.rank() == 0 {
                // Add [1, 2] into elements 0 and 2 of rank 1 (stride 2).
                let src: Vec<u8> = [1u64, 2].iter().flat_map(|v| v.to_le_bytes()).collect();
                let oty = DataType::contiguous(2, DataType::uint64());
                let tty = DataType::vector(2, 1, 2, DataType::uint64());
                win.accumulate_typed(&src, 1, &oty, NumKind::U64, MpiOp::Sum, 1, 0, 1, &tty)
                    .unwrap();
            }
            win.fence().unwrap();
            let mut out = [0u8; 32];
            win.read_local(0, &mut out);
            (0..4)
                .map(|i| u64::from_le_bytes(out[i * 8..i * 8 + 8].try_into().unwrap()))
                .collect::<Vec<_>>()
        });
        assert_eq!(got[1], vec![11, 20, 32, 40]);
    }

    #[test]
    fn raccumulate_and_rget_accumulate() {
        let got = Universe::new(3).node_size(1).run(|ctx| {
            let win = Win::allocate(ctx, 32, 1).unwrap();
            win.lock_all().unwrap();
            let mut req = win
                .raccumulate(&(ctx.rank() as u64 + 1).to_le_bytes(), NumKind::U64, MpiOp::Sum, 0, 0)
                .unwrap();
            req.wait();
            win.unlock_all().unwrap();
            ctx.barrier();
            let mut out = [0u8; 8];
            if ctx.rank() == 1 {
                win.lock(LockType::Shared, 0).unwrap();
                let mut r =
                    win.rget_accumulate(&[], &mut out, NumKind::U64, MpiOp::NoOp, 0, 0).unwrap();
                assert!(r.test(), "fallback path completes inline");
                r.wait();
                win.unlock(0).unwrap();
            }
            ctx.barrier();
            u64::from_le_bytes(out)
        });
        assert_eq!(got[1], 1 + 2 + 3);
    }

    #[test]
    fn traditional_window_per_rank_sizes_and_disp_units() {
        // Each rank exposes a different size with a different displacement
        // unit — the Ω(p) bookkeeping traditional windows exist for.
        let got = Universe::new(3).node_size(1).run(|ctx| {
            let me = ctx.rank() as usize;
            let win = Win::create(ctx, 32 * (me + 1), me + 1).unwrap();
            assert_eq!(win.disp_unit(0), 1);
            assert_eq!(win.disp_unit(2), 3);
            win.fence().unwrap();
            // Write 4 bytes at element 4 of the next rank: byte offset
            // 4 * that rank's disp unit.
            let next = ((me + 1) % 3) as u32;
            win.put(&[me as u8 + 1; 4], next, 4).unwrap();
            win.fence().unwrap();
            let mut b = [0u8; 4];
            win.read_local(4 * (me + 1), &mut b);
            // Out-of-bounds on the smallest rank's window must error.
            let err = {
                win.fence_assert(ASSERT_NOSUCCEED).unwrap();
                win.lock(LockType::Shared, 0).unwrap();
                let e = win.put(&[0u8; 8], 0, 30).is_err(); // 30*1+8 > 32
                win.unlock(0).unwrap();
                e
            };
            ctx.barrier();
            (b[0], err)
        });
        for (r, (v, err)) in got.iter().enumerate() {
            let prev = (r + 2) % 3;
            assert_eq!(*v as usize, prev + 1, "rank {r}");
            assert!(err, "rank {r} bounds check");
        }
    }

    #[test]
    fn get_accumulate_noop_is_atomic_read() {
        let got = Universe::new(2).node_size(1).run(|ctx| {
            let win = Win::allocate(ctx, 16, 1).unwrap();
            win.write_local(0, &99u64.to_le_bytes());
            win.fence().unwrap();
            let mut out = [0u8; 8];
            let other = (ctx.rank() + 1) % 2;
            win.get_accumulate(&[], &mut out, NumKind::U64, MpiOp::NoOp, other, 0).unwrap();
            win.fence().unwrap();
            u64::from_le_bytes(out)
        });
        assert_eq!(got, vec![99, 99]);
    }

    /// ROADMAP 2a: an atomic read of a span another rank is accumulating
    /// into is served by the same protocol as the accumulates, so it loses
    /// none of them (a locked read that wrote its bytes back used to erase
    /// the hardware increments that landed in between).
    #[test]
    fn a_noop_read_racing_hardware_accumulates_loses_no_update() {
        use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
        const N: u64 = 20_000;
        let (reading, done) = (AtomicU64::new(0), AtomicBool::new(false));
        let got = Universe::new(2).node_size(1).run(|ctx| {
            let win = Win::allocate(ctx, 16, 1).unwrap();
            win.lock_all().unwrap();
            if ctx.rank() == 0 {
                // Start once the reader is looping.
                while reading.load(Ordering::Acquire) == 0 {
                    std::thread::yield_now();
                }
                let ones = [1u64.to_le_bytes(), 1u64.to_le_bytes()].concat();
                for _ in 0..N {
                    win.accumulate(&ones, NumKind::U64, MpiOp::Sum, 0, 0).unwrap();
                }
                win.flush_all().unwrap();
                done.store(true, Ordering::Release);
            } else {
                let (mut seen, mut pair) = ([0u64; 2], [0u8; 16]);
                while !done.load(Ordering::Acquire) {
                    win.get_accumulate(&[], &mut pair, NumKind::U64, MpiOp::NoOp, 0, 0).unwrap();
                    reading.fetch_add(1, Ordering::Release);
                    let now =
                        [0, 8].map(|at| u64::from_le_bytes(pair[at..at + 8].try_into().unwrap()));
                    // Values the writer produced: each word counts up to N,
                    // and the second trails the first by at most the one
                    // accumulate in flight.
                    assert!(now[0] >= seen[0] && now[1] >= seen[1], "{now:?} after {seen:?}");
                    assert!(now[0] <= N && now[1] <= N && now[1] + 1 >= now[0], "{now:?}");
                    seen = now;
                }
            }
            win.unlock_all().unwrap();
            ctx.barrier();
            let mut b = [0u8; 16];
            win.read_local(0, &mut b);
            [0, 8].map(|at| u64::from_le_bytes(b[at..at + 8].try_into().unwrap()))
        });
        assert_eq!(got[0], [N, N], "increments were erased");
    }

    /// `NoOp` never stores, on the locked fallback either: no put is
    /// issued and the target bytes stay as they were. Two classes reach the
    /// fallback: a kind the NIC does not accelerate (`F64`), and an
    /// accelerated kind on a misaligned span (`U64` at byte 4).
    #[test]
    fn a_noop_read_on_the_locked_fallback_issues_no_put() {
        for (kind, at) in [(NumKind::F64, 0), (NumKind::U64, 4)] {
            let planted: Vec<u8> = (1..=24).collect();
            Universe::new(2).node_size(1).run(|ctx| {
                let win = Win::allocate(ctx, 24, 1).unwrap();
                win.write_local(0, &planted);
                win.lock_all().unwrap();
                // Rank 1 issues nothing while rank 0 reads the counters.
                ctx.barrier();
                if ctx.rank() == 0 {
                    let counters = ctx.fabric().counters();
                    let before = counters.snapshot();
                    let mut out = [0u8; 16];
                    win.get_accumulate(&[], &mut out, kind, MpiOp::NoOp, 1, at).unwrap();
                    assert_eq!(out[..], planted[at..at + 16]);
                    let d = counters.snapshot().since(&before);
                    assert_eq!((d.puts, d.bytes_put), (0, 0), "{kind:?}: a read stored");
                    // The fallback it is: lock CAS, get, unlock swap.
                    assert_eq!((d.gets, d.amos), (1, 2), "{kind:?}");
                }
                ctx.barrier();
                win.unlock_all().unwrap();
                ctx.barrier();
                let mut now = [0u8; 24];
                win.read_local(0, &mut now);
                assert_eq!(now[..], planted[..], "{kind:?}: target bytes moved");
            });
        }
    }

    /// The typed entry point takes the protocol of its elements' class like
    /// the other two: a strided `accumulate_typed(SUM)` racing contiguous
    /// `accumulate(SUM)`s over the same words (and the hole between its
    /// blocks) loses none of either rank's increments. While it was always
    /// the locked fallback over the whole extent, its write-back erased the
    /// hardware AMOs that landed between its get and its put.
    #[test]
    fn a_typed_accumulate_racing_hardware_accumulates_loses_no_update() {
        const N: u64 = 20_000;
        let got = Universe::new(2).node_size(1).run(|ctx| {
            let win = Win::allocate(ctx, 24, 1).unwrap();
            win.lock_all().unwrap();
            ctx.barrier();
            if ctx.rank() == 0 {
                let ones = [1u64.to_le_bytes(); 3].concat();
                for _ in 0..N {
                    win.accumulate(&ones, NumKind::U64, MpiOp::Sum, 0, 0).unwrap();
                }
            } else {
                // Elements 0 and 2: blocks [0, 8) and [16, 24).
                let ones = [1u64.to_le_bytes(); 2].concat();
                let dense = DataType::contiguous(2, DataType::uint64());
                let strided = DataType::vector(2, 1, 2, DataType::uint64());
                for _ in 0..N {
                    win.accumulate_typed(
                        &ones,
                        1,
                        &dense,
                        NumKind::U64,
                        MpiOp::Sum,
                        0,
                        0,
                        1,
                        &strided,
                    )
                    .unwrap();
                }
            }
            win.unlock_all().unwrap();
            ctx.barrier();
            let mut b = [0u8; 24];
            win.read_local(0, &mut b);
            [0, 8, 16].map(|at| u64::from_le_bytes(b[at..at + 8].try_into().unwrap()))
        });
        assert_eq!(got[0], [2 * N, N, 2 * N], "increments were erased");
    }
}
