//! # fompi-bench — the measurement harness behind every figure
//!
//! Small-scale points come from *real execution* of the live
//! implementations on the threaded fabric (virtual-time clocks, §3's
//! methodology: repeat, take the median); large-scale points come from
//! `fompi-simnet`. The `reproduce` binary prints every figure's series
//! side by side with the paper's expectations and writes CSVs into
//! `results/`.
//!
//! Microbenchmarks implemented here (one function per paper benchmark):
//!
//! * [`fig4_latency`] — put/get latency vs size for all five transports
//!   (foMPI, Cray UPC, Cray CAF, Cray MPI-1 ping-pong, Cray MPI-2.2 RMA);
//! * [`fig5_overlap`] / [`fig5_message_rate`] — overlap and rate;
//! * [`fig6a_atomics`] — accelerated SUM vs fallback MIN vs CAS vs UPC;
//! * [`fence_latency`] / [`pscw_latency`] — real-mode points for 6b/6c;
//! * [`fit_models`] — linear fits of the measured series against the
//!   paper's §3 performance functions.
//!
//! [`fleet`] holds the cross-backend sweep's agents and its summary
//! renderer (the `fleet` binary).

pub mod drift;
pub mod fleet;

use fompi::{LockType, MpiOp, NumKind, Win};
use fompi_msg::{Comm, MsgEngine, Win22};
use fompi_pgas::{Coarray, SharedArray};
use fompi_runtime::{Group, Universe};

/// Transport layers of the paper's figures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// foMPI MPI-3.0.
    Fompi,
    /// Cray UPC.
    Upc,
    /// Cray Fortran Coarrays.
    Caf,
    /// Cray MPI-1 (Send/Recv ping-pong).
    Mpi1,
    /// Cray MPI-2.2 one-sided.
    Mpi22,
}

impl Layer {
    /// Legend label.
    pub fn label(self) -> &'static str {
        match self {
            Layer::Fompi => "FOMPI MPI-3.0",
            Layer::Upc => "Cray UPC",
            Layer::Caf => "Cray CAF",
            Layer::Mpi1 => "Cray MPI-1",
            Layer::Mpi22 => "Cray MPI-2.2",
        }
    }
}

/// The standard message-size sweep (8 B … 256 KiB).
pub fn size_sweep() -> Vec<usize> {
    (3..=18).map(|e| 1usize << e).collect()
}

/// Figure 4a/4b/4c: remote put/get latency (ns) at one size over one
/// transport. `intra` selects the XPMEM (same node) path; `get` selects the
/// get direction. Returns the virtual-time latency of one remotely
/// completed operation.
pub fn fig4_latency(layer: Layer, size: usize, intra: bool, get: bool) -> f64 {
    let node = if intra { 2 } else { 1 };
    const REPS: usize = 8;
    match layer {
        Layer::Fompi => {
            let times = Universe::new(2).node_size(node).run(move |ctx| {
                let win = Win::allocate(ctx, size.max(8), 1).unwrap();
                let mut out = 0.0;
                if ctx.rank() == 0 {
                    win.lock(LockType::Exclusive, 1).unwrap();
                    let buf = vec![1u8; size];
                    let mut dst = vec![0u8; size];
                    let t0 = ctx.now();
                    for _ in 0..REPS {
                        if get {
                            win.get(&mut dst, 1, 0).unwrap();
                        } else {
                            win.put(&buf, 1, 0).unwrap();
                        }
                        win.flush(1).unwrap();
                    }
                    out = (ctx.now() - t0) / REPS as f64;
                    win.unlock(1).unwrap();
                }
                ctx.barrier();
                out
            });
            times[0]
        }
        Layer::Upc => {
            let times = Universe::new(2).node_size(node).run(move |ctx| {
                let a = SharedArray::all_alloc(ctx, size.max(8));
                let mut out = 0.0;
                if ctx.rank() == 0 {
                    let buf = vec![1u8; size];
                    let mut dst = vec![0u8; size];
                    let t0 = ctx.now();
                    for _ in 0..REPS {
                        if get {
                            a.memget(&mut dst, 1, 0);
                        } else {
                            a.memput(1, 0, &buf);
                            a.fence();
                        }
                    }
                    out = (ctx.now() - t0) / REPS as f64;
                }
                ctx.barrier();
                out
            });
            times[0]
        }
        Layer::Caf => {
            let times = Universe::new(2).node_size(node).run(move |ctx| {
                let a = Coarray::new(ctx, size.max(8));
                let mut out = 0.0;
                if ctx.rank() == 0 {
                    let buf = vec![1u8; size];
                    let mut dst = vec![0u8; size];
                    let t0 = ctx.now();
                    for _ in 0..REPS {
                        if get {
                            a.get(&mut dst, 1, 0);
                        } else {
                            a.put(1, 0, &buf);
                            a.sync_memory();
                        }
                    }
                    out = (ctx.now() - t0) / REPS as f64;
                }
                ctx.barrier();
                out
            });
            times[0]
        }
        Layer::Mpi1 => {
            // Standard ping-pong: half the round trip.
            let engine = MsgEngine::new(2);
            let times = Universe::new(2).node_size(node).run(move |ctx| {
                let c = Comm::attach(ctx, &engine);
                let mut buf = vec![0u8; size];
                let payload = vec![1u8; size];
                ctx.barrier();
                let t0 = ctx.now();
                for _ in 0..REPS {
                    if ctx.rank() == 0 {
                        c.send(&payload, 1, 1).unwrap();
                        c.recv(&mut buf, 1, 2).unwrap();
                    } else {
                        c.recv(&mut buf, 0, 1).unwrap();
                        c.send(&payload, 0, 2).unwrap();
                    }
                }
                (ctx.now() - t0) / (2 * REPS) as f64
            });
            times[0]
        }
        Layer::Mpi22 => {
            let times = Universe::new(2).node_size(node).run(move |ctx| {
                let win = Win22::allocate(ctx, size.max(8));
                let mut out = 0.0;
                win.fence();
                if ctx.rank() == 0 {
                    let buf = vec![1u8; size];
                    let mut dst = vec![0u8; size];
                    win.lock(1);
                    let t0 = ctx.now();
                    for _ in 0..REPS {
                        if get {
                            win.get(&mut dst, 1, 0);
                        } else {
                            win.put(&buf, 1, 0);
                        }
                        ctx.ep().gsync();
                    }
                    out = (ctx.now() - t0) / REPS as f64;
                    win.unlock(1);
                }
                ctx.barrier();
                out
            });
            times[0]
        }
    }
}

/// Figure 5a: fraction (%) of the communication hidden behind a calibrated
/// compute loop for one message size.
pub fn fig5_overlap(layer: Layer, size: usize) -> f64 {
    // Pure communication time.
    let t_comm = fig4_latency(layer, size, false, false);
    let compute_ns = t_comm * 1.2; // "slightly more than the latency"
    let total = match layer {
        Layer::Fompi => {
            let times = Universe::new(2).node_size(1).run(move |ctx| {
                let win = Win::allocate(ctx, size.max(8), 1).unwrap();
                let mut out = 0.0;
                if ctx.rank() == 0 {
                    win.lock(LockType::Exclusive, 1).unwrap();
                    let buf = vec![1u8; size];
                    let t0 = ctx.now();
                    win.put(&buf, 1, 0).unwrap();
                    ctx.ep().charge(compute_ns);
                    win.flush(1).unwrap();
                    out = ctx.now() - t0;
                    win.unlock(1).unwrap();
                }
                ctx.barrier();
                out
            });
            times[0]
        }
        Layer::Upc => {
            let times = Universe::new(2).node_size(1).run(move |ctx| {
                let a = SharedArray::all_alloc(ctx, size.max(8));
                let mut out = 0.0;
                if ctx.rank() == 0 {
                    let buf = vec![1u8; size];
                    let t0 = ctx.now();
                    a.memput(1, 0, &buf);
                    ctx.ep().charge(compute_ns);
                    a.fence();
                    out = ctx.now() - t0;
                }
                ctx.barrier();
                out
            });
            times[0]
        }
        Layer::Mpi22 => {
            let times = Universe::new(2).node_size(1).run(move |ctx| {
                let win = Win22::allocate(ctx, size.max(8));
                win.fence();
                let mut out = 0.0;
                if ctx.rank() == 0 {
                    let buf = vec![1u8; size];
                    win.lock(1);
                    let t0 = ctx.now();
                    win.put(&buf, 1, 0);
                    ctx.ep().charge(compute_ns);
                    ctx.ep().gsync();
                    out = ctx.now() - t0;
                    win.unlock(1);
                }
                ctx.barrier();
                out
            });
            times[0]
        }
        _ => return 0.0,
    };
    let hidden = (t_comm + compute_ns - total).max(0.0);
    (hidden / t_comm * 100.0).min(100.0)
}

/// Figure 5b/5c: message rate (million messages/s) — 1000 unsynchronised
/// transactions, then one completion.
pub fn fig5_message_rate(layer: Layer, size: usize, intra: bool) -> f64 {
    let node = if intra { 2 } else { 1 };
    const N: usize = 1000;
    let per_msg_ns = match layer {
        Layer::Fompi => {
            let times = Universe::new(2).node_size(node).run(move |ctx| {
                let win = Win::allocate(ctx, (size * N).max(8), 1).unwrap();
                let mut out = f64::MAX;
                if ctx.rank() == 0 {
                    win.lock(LockType::Shared, 1).unwrap();
                    let buf = vec![1u8; size];
                    let t0 = ctx.now();
                    for i in 0..N {
                        win.put(&buf, 1, i * size).unwrap();
                    }
                    out = (ctx.now() - t0) / N as f64;
                    win.flush(1).unwrap();
                    win.unlock(1).unwrap();
                }
                ctx.barrier();
                out
            });
            times[0]
        }
        Layer::Upc => {
            // defer_sync: fully asynchronous puts.
            let times = Universe::new(2).node_size(node).run(move |ctx| {
                let a = SharedArray::all_alloc(ctx, (size * N).max(8));
                let mut out = f64::MAX;
                if ctx.rank() == 0 {
                    let buf = vec![1u8; size];
                    let t0 = ctx.now();
                    for i in 0..N {
                        a.memput(1, i * size, &buf);
                    }
                    out = (ctx.now() - t0) / N as f64;
                    a.fence();
                }
                ctx.barrier();
                out
            });
            times[0]
        }
        Layer::Caf => {
            let times = Universe::new(2).node_size(node).run(move |ctx| {
                let a = Coarray::new(ctx, (size * N).max(8));
                let mut out = f64::MAX;
                if ctx.rank() == 0 {
                    let buf = vec![1u8; size];
                    let t0 = ctx.now();
                    for i in 0..N {
                        a.put(1, i * size, &buf);
                    }
                    out = (ctx.now() - t0) / N as f64;
                    a.sync_memory();
                }
                ctx.barrier();
                out
            });
            times[0]
        }
        Layer::Mpi1 => {
            let engine = MsgEngine::new(2);
            let times = Universe::new(2).node_size(node).run(move |ctx| {
                let c = Comm::attach(ctx, &engine);
                let mut out = f64::MAX;
                if ctx.rank() == 0 {
                    let buf = vec![1u8; size];
                    let t0 = ctx.now();
                    for _ in 0..N {
                        c.isend(&buf, 1, 7).unwrap();
                    }
                    out = (ctx.now() - t0) / N as f64;
                } else {
                    let mut b = vec![0u8; size];
                    for _ in 0..N {
                        c.recv(&mut b, 0, 7).unwrap();
                    }
                }
                ctx.barrier();
                out
            });
            times[0]
        }
        Layer::Mpi22 => {
            let times = Universe::new(2).node_size(node).run(move |ctx| {
                let win = Win22::allocate(ctx, (size * N).max(8));
                win.fence();
                let mut out = f64::MAX;
                if ctx.rank() == 0 {
                    let buf = vec![1u8; size];
                    win.lock(1);
                    let t0 = ctx.now();
                    for i in 0..N {
                        win.put(&buf, 1, i * size);
                    }
                    out = (ctx.now() - t0) / N as f64;
                    win.unlock(1);
                }
                ctx.barrier();
                out
            });
            times[0]
        }
    };
    1e9 / per_msg_ns / 1e6
}

/// Figure 6a curves: latency (ns) of an atomic accumulate of `n` 8-byte
/// elements.
pub fn fig6a_atomics(kind: &str, n: usize) -> f64 {
    const REPS: usize = 4;
    let k = kind.to_string();
    let times = Universe::new(2).node_size(1).run(move |ctx| {
        let win = Win::allocate(ctx, (n * 8).max(16), 1).unwrap();
        let arr = SharedArray::all_alloc(ctx, (n * 8).max(16));
        let mut out = 0.0;
        ctx.barrier();
        if ctx.rank() == 0 {
            win.lock_all().unwrap();
            let buf: Vec<u8> = (0..n).flat_map(|i| (i as u64).to_le_bytes()).collect();
            let t0 = ctx.now();
            for _ in 0..REPS {
                match k.as_str() {
                    "fompi_sum" => {
                        win.accumulate(&buf, NumKind::U64, MpiOp::Sum, 1, 0).unwrap();
                        win.flush(1).unwrap();
                    }
                    "fompi_min" => {
                        win.accumulate(&buf, NumKind::I64, MpiOp::Min, 1, 0).unwrap();
                        win.flush(1).unwrap();
                    }
                    "fompi_cas" => {
                        win.compare_and_swap(1, 0, 1, 0).unwrap();
                    }
                    "upc_aadd" => {
                        for i in 0..n {
                            arr.aadd(1, i * 8, 1);
                        }
                    }
                    "upc_cas" => {
                        arr.cas(1, 0, 1, 0);
                    }
                    other => panic!("unknown atomic benchmark {other}"),
                }
            }
            out = (ctx.now() - t0) / REPS as f64;
            win.unlock_all().unwrap();
        }
        ctx.barrier();
        out
    });
    times[0]
}

/// Real-mode fence latency at `p` ranks (figure 6b's small-p points).
pub fn fence_latency(p: usize, node_size: usize) -> f64 {
    let times = Universe::new(p).node_size(node_size).run(|ctx| {
        let win = Win::allocate(ctx, 64, 1).unwrap();
        win.fence().unwrap(); // warm-up: align clocks
        let t0 = ctx.now();
        win.fence().unwrap();
        ctx.now() - t0
    });
    times.iter().cloned().fold(0.0, f64::max)
}

/// Real-mode PSCW ring latency at `p` ranks (figure 6c's small-p points).
pub fn pscw_latency(p: usize, node_size: usize) -> f64 {
    let times = Universe::new(p).node_size(node_size).run(|ctx| {
        let win = Win::allocate(ctx, 64, 1).unwrap();
        let me = ctx.rank();
        let pn = p as u32;
        let g = Group::new([(me + pn - 1) % pn, (me + 1) % pn]);
        ctx.barrier();
        let t0 = ctx.now();
        win.post(&g).unwrap();
        win.start(&g).unwrap();
        win.put(&[1u8; 8], (me + 1) % pn, 0).unwrap();
        win.complete().unwrap();
        win.wait().unwrap();
        ctx.now() - t0
    });
    times.iter().cloned().fold(0.0, f64::max)
}

/// Passive-target constants (§3.2): `(lock_excl, lock_shared, lock_all,
/// unlock, flush, sync)` in ns, measured uncontended.
pub fn lock_constants() -> (f64, f64, f64, f64, f64, f64) {
    // Measure from rank 1 so that both the target's local lock and the
    // master's global lock (rank 0) are remote, as in the paper's setup.
    let times = Universe::new(2).node_size(1).run(|ctx| {
        let win = Win::allocate(ctx, 64, 1).unwrap();
        let mut v = (0.0, 0.0, 0.0, 0.0, 0.0, 0.0);
        if ctx.rank() == 1 {
            let t0 = ctx.now();
            win.lock(LockType::Exclusive, 0).unwrap();
            v.0 = ctx.now() - t0;
            let t0 = ctx.now();
            win.flush(0).unwrap();
            v.4 = ctx.now() - t0;
            let t0 = ctx.now();
            win.unlock(0).unwrap();
            v.3 = ctx.now() - t0;
            let t0 = ctx.now();
            win.lock(LockType::Shared, 0).unwrap();
            v.1 = ctx.now() - t0;
            win.unlock(0).unwrap();
            let t0 = ctx.now();
            win.lock_all().unwrap();
            v.2 = ctx.now() - t0;
            win.unlock_all().unwrap();
            let t0 = ctx.now();
            win.sync();
            v.5 = ctx.now() - t0;
        }
        ctx.barrier();
        v
    });
    times[1]
}

/// Least-squares linear fit `y = a + b·x`; returns `(a, b)`.
pub fn linear_fit(points: &[(f64, f64)]) -> (f64, f64) {
    let n = points.len() as f64;
    let sx: f64 = points.iter().map(|p| p.0).sum();
    let sy: f64 = points.iter().map(|p| p.1).sum();
    let sxx: f64 = points.iter().map(|p| p.0 * p.0).sum();
    let sxy: f64 = points.iter().map(|p| p.0 * p.1).sum();
    let b = (n * sxy - sx * sy) / (n * sxx - sx * sx);
    let a = (sy - b * sx) / n;
    (a, b)
}

/// Fit the measured put/get series to `base + byte·s` (the paper's Pput /
/// Pget form). Returns `(base_ns, per_byte_ns)`.
pub fn fit_models(get: bool) -> (f64, f64) {
    let pts: Vec<(f64, f64)> = size_sweep()
        .into_iter()
        .filter(|&s| s < 4096) // below the protocol change
        .map(|s| (s as f64, fig4_latency(Layer::Fompi, s, false, get)))
        .collect();
    linear_fit(&pts)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fompi_beats_pgas_small_put() {
        let f = fig4_latency(Layer::Fompi, 8, false, false);
        let u = fig4_latency(Layer::Upc, 8, false, false);
        let c = fig4_latency(Layer::Caf, 8, false, false);
        // "more than 50% lower latency than other PGAS models".
        assert!(f < u * 0.67, "foMPI {f} vs UPC {u}");
        assert!(u < c, "UPC {u} vs CAF {c}");
    }

    #[test]
    fn mpi22_is_the_slow_one() {
        let f = fig4_latency(Layer::Fompi, 8, false, false);
        let m22 = fig4_latency(Layer::Mpi22, 8, false, false);
        assert!(m22 > 5.0 * f, "MPI-2.2 {m22} vs foMPI {f}");
    }

    #[test]
    fn bandwidth_converges_at_large_sizes() {
        let f = fig4_latency(Layer::Fompi, 1 << 18, false, false);
        let u = fig4_latency(Layer::Upc, 1 << 18, false, false);
        assert!((f - u).abs() / f < 0.1, "large-message bandwidth: {f} vs {u}");
    }

    #[test]
    fn intra_node_much_faster() {
        let inter = fig4_latency(Layer::Fompi, 8, false, false);
        let intra = fig4_latency(Layer::Fompi, 8, true, false);
        assert!(intra * 2.0 < inter, "intra {intra} vs inter {inter}");
    }

    #[test]
    fn protocol_change_bump_visible() {
        let below = fig4_latency(Layer::Fompi, 2048, false, false);
        let above = fig4_latency(Layer::Fompi, 8192, false, false);
        assert!(above > below, "{below} vs {above}");
    }

    #[test]
    fn overlap_high_for_fompi() {
        let f = fig5_overlap(Layer::Fompi, 4096);
        assert!(f > 70.0, "foMPI overlap {f}%");
        let big = fig5_overlap(Layer::Fompi, 32768);
        assert!(big > 85.0, "foMPI overlap at 32 KiB {big}%");
        assert!(big > f, "overlap should grow with size");
    }

    #[test]
    fn message_rate_sane() {
        let r8 = fig5_message_rate(Layer::Fompi, 8, false);
        // ~1/(416 ns + overhead) ≈ 2 M/s.
        assert!(r8 > 1.0 && r8 < 3.0, "rate {r8} M/s");
        let intra = fig5_message_rate(Layer::Fompi, 8, true);
        assert!(intra > r8 * 2.0, "intra rate {intra} vs {r8}");
        let upc = fig5_message_rate(Layer::Upc, 8, false);
        assert!(upc < r8, "UPC rate {upc} vs foMPI {r8}");
    }

    #[test]
    fn atomics_sum_accelerated_min_not() {
        let sum1 = fig6a_atomics("fompi_sum", 1);
        let min1 = fig6a_atomics("fompi_min", 1);
        let cas = fig6a_atomics("fompi_cas", 1);
        // Small counts: accelerated SUM beats the locked MIN fallback.
        assert!(sum1 < min1, "sum {sum1} vs min {min1}");
        assert!((cas - sum1).abs() < sum1, "CAS {cas} near SUM {sum1}");
        // Large counts: the bandwidth-bound fallback wins (Figure 6a).
        let sum = fig6a_atomics("fompi_sum", 4096);
        let min = fig6a_atomics("fompi_min", 4096);
        assert!(min < sum, "large-n: min {min} should beat sum {sum}");
    }

    #[test]
    fn fence_latency_log_p() {
        let t4 = fence_latency(4, 1);
        let t16 = fence_latency(16, 1);
        assert!(t16 > t4);
        assert!(t16 < t4 * 3.0);
    }

    #[test]
    fn pscw_flat_in_p() {
        // Contended CAS retries vary with real thread scheduling; take the
        // best of three runs at each size (the paper reports medians).
        let best = |p: usize| (0..3).map(|_| pscw_latency(p, 1)).fold(f64::MAX, f64::min);
        let t4 = best(4);
        let t16 = best(16);
        assert!(t16 < t4 * 3.0, "PSCW should be ~flat: {t4} vs {t16}");
    }

    #[test]
    fn lock_constants_ordered_like_paper() {
        let (excl, shared, all, unlock, flush, sync) = lock_constants();
        assert!(excl > shared, "excl {excl} vs shared {shared}");
        assert!((shared - all).abs() < shared * 0.5);
        assert!(unlock < shared);
        assert!(flush < unlock);
        assert!(sync < flush);
    }

    #[test]
    fn put_model_fit_close_to_cost_model() {
        let (base, byte) = fit_models(false);
        // Our put path ≈ overheads + 1 µs base, 0.16 ns/B.
        assert!(base > 800.0 && base < 2_500.0, "base {base}");
        assert!(byte > 0.1 && byte < 0.25, "byte {byte}");
    }

    #[test]
    fn real_and_simulated_fence_agree() {
        // The threaded run (virtual clocks) and the simnet replay must be
        // mutually consistent where they overlap — the strongest internal
        // validation of the two-mode methodology.
        let real = fence_latency(64, 1);
        let sim = fompi_simnet::figures::fig6b(&[64])[0].points[0].1 * 1e3;
        let ratio = real / sim;
        assert!(
            (0.9..1.1).contains(&ratio),
            "real fence {real} ns vs simulated {sim} ns (ratio {ratio})"
        );
    }

    #[test]
    fn real_and_simulated_pscw_same_ballpark() {
        // PSCW involves contended CAS retries in real mode, so agreement
        // is looser, but both must sit in the same decade and both flat.
        let real = (0..3).map(|_| pscw_latency(16, 1)).fold(f64::MAX, f64::min);
        let sim = fompi_simnet::figures::fig6c(&[16])[0].points[0].1 * 1e3;
        let ratio = real / sim;
        assert!(
            (0.2..5.0).contains(&ratio),
            "real PSCW {real} ns vs simulated {sim} ns (ratio {ratio})"
        );
    }

    #[test]
    fn linear_fit_exact_on_line() {
        let pts: Vec<(f64, f64)> = (0..10).map(|i| (i as f64, 3.0 + 2.0 * i as f64)).collect();
        let (a, b) = linear_fit(&pts);
        assert!((a - 3.0).abs() < 1e-9 && (b - 2.0).abs() < 1e-9);
    }
}
