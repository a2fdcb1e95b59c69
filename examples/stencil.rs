//! 2-D heat diffusion with PSCW neighbour synchronisation.
//!
//! ```text
//! cargo run --release --example stencil [ranks] [n] [steps]
//! ```
//!
//! The general-active-target mode's sweet spot (§2.3, Figure 6c): each rank
//! synchronises with its *two* neighbours only — post/start/complete/wait
//! is O(k), so the sync cost stays flat as the job grows, unlike a global
//! fence. The domain is an n×n grid split into row bands; every step
//! exchanges boundary rows via RMA puts inside a PSCW epoch, then applies
//! a Jacobi update. The distributed result is verified against a serial
//! run.

use fompi::Win;
use fompi_runtime::{Group, Universe};

fn serial(n: usize, steps: usize, init: impl Fn(usize, usize) -> f64) -> Vec<f64> {
    let mut cur: Vec<f64> = (0..n * n).map(|i| init(i / n, i % n)).collect();
    let mut next = cur.clone();
    for _ in 0..steps {
        for r in 0..n {
            for c in 0..n {
                let up = if r > 0 { cur[(r - 1) * n + c] } else { 0.0 };
                let down = if r + 1 < n { cur[(r + 1) * n + c] } else { 0.0 };
                let left = if c > 0 { cur[r * n + c - 1] } else { 0.0 };
                let right = if c + 1 < n { cur[r * n + c + 1] } else { 0.0 };
                next[r * n + c] = 0.25 * (up + down + left + right);
            }
        }
        std::mem::swap(&mut cur, &mut next);
    }
    cur
}

fn init(r: usize, c: usize) -> f64 {
    ((r * 31 + c * 7) % 17) as f64 - 8.0
}

fn main() {
    let mut args = std::env::args().skip(1);
    let p: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(4);
    let n: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(64);
    let steps: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(20);
    assert!(n.is_multiple_of(p), "n must be divisible by p");
    let rows = n / p;
    println!("== 2-D Jacobi stencil: {n}x{n} grid, {p} ranks x {rows} rows, {steps} steps ==\n");

    let (results, fabric) = Universe::new(p).node_size(4).launch(move |ctx| {
        let me = ctx.rank() as usize;
        // Window: [halo_top n][band rows*n][halo_bottom n] doubles.
        let win = Win::allocate(ctx, (rows + 2) * n * 8, 8).unwrap();
        let mut cur = vec![0.0f64; rows * n];
        for r in 0..rows {
            for c in 0..n {
                cur[r * n + c] = init(me * rows + r, c);
            }
        }
        let mut next = cur.clone();
        let up = if me > 0 { Some(me as u32 - 1) } else { None };
        let down = if me + 1 < p { Some(me as u32 + 1) } else { None };
        let neighbors: Vec<u32> = up.iter().chain(down.iter()).copied().collect();
        let group = Group::new(neighbors.clone());
        let t0 = ctx.now();
        for _ in 0..steps {
            // Exchange boundary rows: my top row → up's bottom halo, my
            // bottom row → down's top halo.
            win.post(&group).unwrap();
            win.start(&group).unwrap();
            let row_bytes =
                |row: &[f64]| -> Vec<u8> { row.iter().flat_map(|v| v.to_le_bytes()).collect() };
            if let Some(u) = up {
                win.put(&row_bytes(&cur[0..n]), u, (1 + rows) * n).unwrap();
            }
            if let Some(d) = down {
                win.put(&row_bytes(&cur[(rows - 1) * n..rows * n]), d, 0).unwrap();
            }
            win.complete().unwrap();
            win.wait().unwrap();
            // Read halos.
            let read_row = |off: usize| -> Vec<f64> {
                let mut b = vec![0u8; n * 8];
                win.read_local(off * 8, &mut b);
                b.chunks_exact(8).map(|c| f64::from_le_bytes(c.try_into().unwrap())).collect()
            };
            let halo_top = read_row(0);
            let halo_bot = read_row((1 + rows) * n);
            // Jacobi update.
            for r in 0..rows {
                for c in 0..n {
                    let upv = if r > 0 {
                        cur[(r - 1) * n + c]
                    } else if up.is_some() {
                        halo_top[c]
                    } else {
                        0.0
                    };
                    let dnv = if r + 1 < rows {
                        cur[(r + 1) * n + c]
                    } else if down.is_some() {
                        halo_bot[c]
                    } else {
                        0.0
                    };
                    let lv = if c > 0 { cur[r * n + c - 1] } else { 0.0 };
                    let rv = if c + 1 < n { cur[r * n + c + 1] } else { 0.0 };
                    next[r * n + c] = 0.25 * (upv + dnv + lv + rv);
                }
            }
            std::mem::swap(&mut cur, &mut next);
            ctx.ep().charge_flops(4.0 * (rows * n) as f64);
        }
        let dt = ctx.now() - t0;
        (cur, dt)
    });

    // Verify against serial.
    let reference = serial(n, steps, init);
    let mut max_err = 0.0f64;
    for (rank, (band, _)) in results.iter().enumerate() {
        for r in 0..rows {
            for c in 0..n {
                let err = (band[r * n + c] - reference[(rank * rows + r) * n + c]).abs();
                max_err = max_err.max(err);
            }
        }
    }
    let t = results.iter().map(|(_, dt)| *dt).fold(0.0, f64::max);
    println!("completed in {:.1} us virtual time ({:.2} us/step)", t / 1e3, t / 1e3 / steps as f64);
    println!("max |error| vs serial: {max_err:e}");
    assert!(max_err < 1e-12, "distributed result diverged");
    println!("verified — OK");

    // With FOMPI_TELEMETRY=1 (or FOMPI_METRICS=1) the fabric records every
    // RMA and sync event; dump the per-class summary, a Perfetto-loadable
    // trace and the tail-quantile metrics snapshot.
    let tel = fabric.telemetry();
    if tel.enabled() {
        println!("\n{}", tel.report());
        let path = "results/stencil_trace.json";
        fompi_fabric::telemetry::perfetto::export_trace(tel, path).expect("write trace");
        println!("Perfetto trace written to {path} (open in ui.perfetto.dev)");
        let snap = fompi_fabric::metrics_snapshot(&fabric);
        println!("\n{}", snap.to_prometheus());
        println!("metrics json: {}", snap.to_json_line());
    }
}
