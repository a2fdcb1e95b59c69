//! Regenerate every table and figure of the paper.
//!
//! ```text
//! cargo run --release -p fompi-bench --bin reproduce            # everything
//! cargo run --release -p fompi-bench --bin reproduce fig6b ...  # subset
//! ```
//!
//! Small-p points: real execution of the live implementations (virtual
//! time). Large-p series: `fompi-simnet`. CSVs land in `results/`.

use fompi::PaperModel;
use fompi_apps::{dsde, fft, hashtable, milc};
use fompi_bench as bench;
use fompi_bench::Layer;
use fompi_msg::{Comm, MsgEngine};
use fompi_runtime::Universe;
use fompi_simnet::figures as sim;
use std::fmt::Write as _;
use std::fs;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let want = |name: &str| args.is_empty() || args.iter().any(|a| a == name);
    fs::create_dir_all("results").ok();
    println!("== foMPI-rs reproduction harness ==");
    println!("   (virtual-time measurements; shapes comparable to the paper,");
    println!("    absolute values calibrated to Blue Waters constants)\n");
    if want("fig4a") {
        fig4(false, false, "fig4a", "Figure 4a: inter-node Put latency [us]");
    }
    if want("fig4b") {
        fig4(true, false, "fig4b", "Figure 4b: inter-node Get latency [us]");
    }
    if want("fig4c") {
        fig4(false, true, "fig4c", "Figure 4c: intra-node Put latency [us]");
    }
    if want("fig5a") {
        fig5a();
    }
    if want("fig5b") {
        fig5rate(false, "fig5b", "Figure 5b: message rate inter-node [M msgs/s]");
    }
    if want("fig5c") {
        fig5rate(true, "fig5c", "Figure 5c: message rate intra-node [M msgs/s]");
    }
    if want("fig6a") {
        fig6a();
    }
    if want("fig6b") {
        fig6b();
    }
    if want("fig6c") {
        fig6c();
    }
    if want("fig7a") {
        fig7a();
    }
    if want("fig7b") {
        fig7b();
    }
    if want("fig7c") {
        fig7c();
    }
    if want("fig8") {
        fig8();
    }
    if want("models") {
        models();
    }
    if want("drift") {
        drift();
    }
    println!("\nCSV series written to results/");
}

fn write_csv(name: &str, header: &str, rows: &[String]) {
    let mut s = String::new();
    let _ = writeln!(s, "{header}");
    for r in rows {
        let _ = writeln!(s, "{r}");
    }
    fs::write(format!("results/{name}.csv"), s).expect("write csv");
}

fn fig4(get: bool, intra: bool, id: &str, title: &str) {
    println!("--- {title} ---");
    let layers = [Layer::Fompi, Layer::Upc, Layer::Caf, Layer::Mpi1, Layer::Mpi22];
    println!(
        "{:>9} {:>13} {:>13} {:>13} {:>13} {:>13}",
        "size", "foMPI", "UPC", "CAF", "MPI-1", "MPI-2.2"
    );
    let mut rows = Vec::new();
    for size in bench::size_sweep() {
        let vals: Vec<f64> =
            layers.iter().map(|&l| bench::fig4_latency(l, size, intra, get) / 1e3).collect();
        println!(
            "{:>9} {:>13.2} {:>13.2} {:>13.2} {:>13.2} {:>13.2}",
            size, vals[0], vals[1], vals[2], vals[3], vals[4]
        );
        rows.push(format!("{size},{},{},{},{},{}", vals[0], vals[1], vals[2], vals[3], vals[4]));
    }
    write_csv(id, "size_bytes,fompi_us,upc_us,caf_us,mpi1_us,mpi22_us", &rows);
    println!();
}

fn fig5a() {
    println!("--- Figure 5a: communication/computation overlap inter-node [%] ---");
    println!("{:>9} {:>10} {:>10} {:>10}", "size", "foMPI", "UPC", "MPI-2.2");
    let mut rows = Vec::new();
    for size in bench::size_sweep() {
        let f = bench::fig5_overlap(Layer::Fompi, size);
        let u = bench::fig5_overlap(Layer::Upc, size);
        let m = bench::fig5_overlap(Layer::Mpi22, size);
        println!("{size:>9} {f:>10.1} {u:>10.1} {m:>10.1}");
        rows.push(format!("{size},{f},{u},{m}"));
    }
    write_csv("fig5a", "size_bytes,fompi_pct,upc_pct,mpi22_pct", &rows);
    println!();
}

fn fig5rate(intra: bool, id: &str, title: &str) {
    println!("--- {title} ---");
    let layers = [Layer::Fompi, Layer::Upc, Layer::Caf, Layer::Mpi1, Layer::Mpi22];
    println!(
        "{:>9} {:>10} {:>10} {:>10} {:>10} {:>10}",
        "size", "foMPI", "UPC", "CAF", "MPI-1", "MPI-2.2"
    );
    let mut rows = Vec::new();
    for size in bench::size_sweep().into_iter().filter(|s| *s <= 1 << 15) {
        let vals: Vec<f64> =
            layers.iter().map(|&l| bench::fig5_message_rate(l, size, intra)).collect();
        println!(
            "{:>9} {:>10.3} {:>10.3} {:>10.3} {:>10.3} {:>10.3}",
            size, vals[0], vals[1], vals[2], vals[3], vals[4]
        );
        rows.push(format!("{size},{},{},{},{},{}", vals[0], vals[1], vals[2], vals[3], vals[4]));
    }
    write_csv(id, "size_bytes,fompi,upc,caf,mpi1,mpi22", &rows);
    println!();
}

fn fig6a() {
    println!("--- Figure 6a: atomics latency [us] vs element count ---");
    println!(
        "{:>9} {:>12} {:>12} {:>12} {:>12} {:>12}",
        "elems", "foMPI SUM", "foMPI MIN", "foMPI CAS", "UPC aadd", "UPC CAS"
    );
    let mut rows = Vec::new();
    for n in [1usize, 2, 4, 8, 64, 512, 4096, 32768] {
        let sum = bench::fig6a_atomics("fompi_sum", n) / 1e3;
        let min = bench::fig6a_atomics("fompi_min", n) / 1e3;
        let cas = bench::fig6a_atomics("fompi_cas", 1) / 1e3;
        let aadd = bench::fig6a_atomics("upc_aadd", n) / 1e3;
        let ucas = bench::fig6a_atomics("upc_cas", 1) / 1e3;
        println!("{n:>9} {sum:>12.2} {min:>12.2} {cas:>12.2} {aadd:>12.2} {ucas:>12.2}");
        rows.push(format!("{n},{sum},{min},{cas},{aadd},{ucas}"));
    }
    write_csv(
        "fig6a",
        "elems,fompi_sum_us,fompi_min_us,fompi_cas_us,upc_aadd_us,upc_cas_us",
        &rows,
    );
    println!();
}

fn print_series(title: &str, id: &str, xlabel: &str, series: &[sim::Series]) {
    println!("--- {title} ---");
    print!("{xlabel:>9}");
    for s in series {
        print!(" {:>22}", s.label);
    }
    println!();
    let mut rows = Vec::new();
    for i in 0..series[0].points.len() {
        let x = series[0].points[i].0;
        print!("{x:>9.0}");
        let mut row = format!("{x}");
        for s in series {
            print!(" {:>22.3}", s.points[i].1);
            let _ = write!(row, ",{}", s.points[i].1);
        }
        println!();
        rows.push(row);
    }
    let header = std::iter::once(xlabel.to_string())
        .chain(series.iter().map(|s| s.label.replace(' ', "_")))
        .collect::<Vec<_>>()
        .join(",");
    write_csv(id, &header, &rows);
    println!();
}

fn fig6b() {
    println!("--- Figure 6b (real, threads): foMPI fence latency [us] ---");
    let mut rows = Vec::new();
    for p in [2usize, 4, 8, 16, 32, 64] {
        let t = bench::fence_latency(p, 32.min(p)) / 1e3;
        println!("  p={p:<4} fence = {t:.2} us");
        rows.push(format!("{p},{t}"));
    }
    write_csv("fig6b_real", "p,fompi_fence_us", &rows);
    let ps: Vec<usize> = (1..=13).map(|e| 1usize << e).collect();
    print_series(
        "Figure 6b (simulated): global synchronization latency [us]",
        "fig6b",
        "p",
        &sim::fig6b(&ps),
    );
}

fn fig6c() {
    println!("--- Figure 6c (real, threads): foMPI PSCW ring latency [us] ---");
    let mut rows = Vec::new();
    for p in [2usize, 4, 8, 16, 32, 64] {
        let t = bench::pscw_latency(p, 32.min(p)) / 1e3;
        println!("  p={p:<4} PSCW = {t:.2} us");
        rows.push(format!("{p},{t}"));
    }
    write_csv("fig6c_real", "p,fompi_pscw_us", &rows);
    let ps: Vec<usize> = (1..=17).map(|e| 1usize << e).collect();
    print_series("Figure 6c (simulated): PSCW ring latency [us]", "fig6c", "p", &sim::fig6c(&ps));
}

fn fig7a() {
    println!("--- Figure 7a (real, threads): hashtable inserts/s [millions] ---");
    let cfg = hashtable::HtConfig {
        inserts_per_rank: 128,
        table_slots: 4096,
        heap_cells: 4096,
        seed: 42,
    };
    let mut rows = Vec::new();
    for p in [2usize, 4, 8, 16] {
        let rma = Universe::new(p).node_size(1).run(|ctx| hashtable::run_rma(ctx, &cfg));
        let upc = Universe::new(p).node_size(1).run(|ctx| hashtable::run_upc(ctx, &cfg));
        let engine = MsgEngine::new(p);
        let mpi = Universe::new(p).node_size(1).run(move |ctx| {
            let comm = Comm::attach(ctx, &engine);
            hashtable::run_mpi1(ctx, &comm, &cfg)
        });
        let rate = |rs: &[hashtable::HtResult]| {
            let t = rs.iter().map(|r| r.time_ns).fold(0.0, f64::max);
            (p * cfg.inserts_per_rank) as f64 / t * 1e3 // M inserts/s
        };
        let (r, u, m) = (rate(&rma), rate(&upc), rate(&mpi));
        println!("  p={p:<4} foMPI={r:>8.2}  UPC={u:>8.2}  MPI-1={m:>8.2}");
        rows.push(format!("{p},{r},{u},{m}"));
    }
    write_csv("fig7a_real", "p,fompi_M_per_s,upc_M_per_s,mpi1_M_per_s", &rows);
    let ps: Vec<usize> = (1..=15).map(|e| 1usize << e).collect();
    print_series(
        "Figure 7a (simulated): inserts per second [billions]",
        "fig7a",
        "p",
        &sim::fig7a(&ps, 32, 128),
    );
}

fn fig7b() {
    println!("--- Figure 7b (real, threads): DSDE time [us], k=3 ---");
    let k = 3;
    let mut rows = Vec::new();
    for p in [8usize, 16] {
        let engine = MsgEngine::new(p);
        let e2 = engine.clone();
        let a2a = Universe::new(p).node_size(2).run(move |ctx| {
            let c = Comm::attach(ctx, &e2);
            dsde::run_alltoall(ctx, &c, k, 9).time_ns
        });
        let e2 = engine.clone();
        let rs = Universe::new(p).node_size(2).run(move |ctx| {
            let c = Comm::attach(ctx, &e2);
            dsde::run_reduce_scatter(ctx, &c, k, 9).time_ns
        });
        let e2 = engine.clone();
        let nbx = Universe::new(p).node_size(2).run(move |ctx| {
            let c = Comm::attach(ctx, &e2);
            dsde::run_nbx(ctx, &c, k, 9, 1).time_ns
        });
        let rma = Universe::new(p).node_size(2).run(move |ctx| {
            let win = fompi::Win::allocate(ctx, dsde::rma_win_bytes(p), 1).unwrap();
            dsde::run_rma(ctx, &win, k, 9).time_ns
        });
        let mx = |v: &[f64]| v.iter().cloned().fold(0.0, f64::max) / 1e3;
        let (a, r, n, o) = (mx(&a2a), mx(&rs), mx(&nbx), mx(&rma));
        println!("  p={p:<4} RMA={o:>8.1}  NBX={n:>8.1}  red_scat={r:>8.1}  alltoall={a:>8.1}");
        rows.push(format!("{p},{o},{n},{r},{a}"));
    }
    write_csv("fig7b_real", "p,rma_us,nbx_us,reduce_scatter_us,alltoall_us", &rows);
    let ps: Vec<usize> = (3..=15).map(|e| 1usize << e).collect();
    print_series(
        "Figure 7b (simulated): DSDE exchange time [us], k=6",
        "fig7b",
        "p",
        &sim::fig7b(&ps, 6),
    );
}

fn fig7c() {
    println!("--- Figure 7c (real, threads): 3-D FFT GFlop/s, n=32 ---");
    let cfg = fft::FftConfig { n: 32, seed: 3 };
    let mut rows = Vec::new();
    for p in [2usize, 4, 8] {
        let engine = MsgEngine::new(p);
        let mpi = Universe::new(p).node_size(2).run(move |ctx| {
            let c = Comm::attach(ctx, &engine);
            fft::run_mpi1(ctx, &c, &cfg, false)
        });
        let rma = Universe::new(p).node_size(2).run(move |ctx| fft::run_rma(ctx, &cfg));
        let upc = Universe::new(p).node_size(2).run(move |ctx| fft::run_upc(ctx, &cfg));
        let gf = |rs: &[fft::FftResult]| {
            let t = rs.iter().map(|r| r.time_ns).fold(0.0, f64::max);
            fft::fft_flops(cfg.n * cfg.n * cfg.n) / t
        };
        let (m, r, u) = (gf(&mpi), gf(&rma), gf(&upc));
        println!(
            "  p={p:<4} foMPI={r:>8.3}  UPC={u:>8.3}  MPI-1={m:>8.3}  (gain {:.1}%)",
            (r / m - 1.0) * 100.0
        );
        rows.push(format!("{p},{r},{u},{m}"));
    }
    write_csv("fig7c_real", "p,fompi_gflops,upc_gflops,mpi1_gflops", &rows);
    let ps: Vec<usize> = (10..=16).map(|e| 1usize << e).collect();
    let series = sim::fig7c(&ps);
    print_series("Figure 7c (simulated): class-D FFT performance [GFlop/s]", "fig7c", "p", &series);
    println!("   improvement of foMPI over MPI-1 (paper annotations: 18.4% ... 101.8%):");
    for (i, &p) in ps.iter().enumerate() {
        let f = series[0].points[i].1;
        let m = series[2].points[i].1;
        println!("     p={p:<7} {:+.1}%", (f / m - 1.0) * 100.0);
    }
    println!();
}

fn fig8() {
    println!("--- Figure 8 (real, threads): MILC proxy CG time [us], local 4x4x4x8 ---");
    let cfg = milc::MilcConfig { local: [4, 4, 4, 8], iters: 5, seed: 4 };
    let mut rows = Vec::new();
    for p in [4usize, 8, 16] {
        let engine = MsgEngine::new(p);
        let mpi = Universe::new(p).node_size(4).run(move |ctx| {
            let c = Comm::attach(ctx, &engine);
            milc::run_mpi1(ctx, &c, &cfg)
        });
        let rma = Universe::new(p).node_size(4).run(move |ctx| milc::run_rma(ctx, &cfg));
        let upc = Universe::new(p).node_size(4).run(move |ctx| milc::run_upc(ctx, &cfg));
        let mx = |rs: &[milc::MilcResult]| rs.iter().map(|r| r.time_ns).fold(0.0, f64::max) / 1e3;
        let (m, r, u) = (mx(&mpi), mx(&rma), mx(&upc));
        println!(
            "  p={p:<4} foMPI={r:>9.1}  UPC={u:>9.1}  MPI-1={m:>9.1}  (gain {:+.1}%)",
            (m / r - 1.0) * 100.0
        );
        rows.push(format!("{p},{r},{u},{m}"));
    }
    write_csv("fig8_real", "p,fompi_us,upc_us,mpi1_us", &rows);
    let ps: Vec<usize> = (12..=19).map(|e| 1usize << e).collect();
    let series = sim::fig8(&ps);
    print_series(
        "Figure 8 (simulated): MILC full-application time [s], weak scaling",
        "fig8",
        "p",
        &series,
    );
    println!("   improvement of foMPI over MPI-1 (paper annotations: 5.3% ... 15.2%):");
    for (i, &p) in ps.iter().enumerate() {
        let f = series[0].points[i].1;
        let m = series[2].points[i].1;
        println!("     p={p:<7} {:+.1}%", (m / f - 1.0) * 100.0);
    }
    println!();
}

fn models() {
    println!("--- Section 3 performance models: measured vs paper ---");
    let paper = PaperModel::default();
    let (pb, pbyte) = bench::fit_models(false);
    let (gb, gbyte) = bench::fit_models(true);
    println!(
        "  Pput  : measured {pb:7.0} + {pbyte:.3} ns/B   (paper {:.0} + {:.2} ns/B)",
        paper.cost.dmapp_put_base_ns, paper.cost.dmapp_put_byte_ns
    );
    println!(
        "  Pget  : measured {gb:7.0} + {gbyte:.3} ns/B   (paper {:.0} + {:.2} ns/B)",
        paper.cost.dmapp_get_base_ns, paper.cost.dmapp_get_byte_ns
    );
    let (excl, shared, all, unlock, flush, sync) = bench::lock_constants();
    println!("  Plock,excl : measured {excl:7.0} ns   (paper {:.0} ns)", paper.lock_excl);
    println!("  Plock,shrd : measured {shared:7.0} ns   (paper {:.0} ns)", paper.lock_shared);
    println!("  Plock_all  : measured {all:7.0} ns   (paper {:.0} ns)", paper.lock_shared);
    println!("  Punlock    : measured {unlock:7.0} ns   (paper {:.0} ns)", paper.unlock);
    println!("  Pflush     : measured {flush:7.0} ns   (paper {:.0} ns)", paper.flush);
    println!("  Psync      : measured {sync:7.0} ns   (paper {:.0} ns)", paper.cost.sync_ns);
    // Fence constant: fit t = c · log2 p.
    let mut cs = Vec::new();
    for p in [4usize, 8, 16, 32] {
        let t = bench::fence_latency(p, 1);
        cs.push(t / (p as f64).log2());
    }
    let c = cs.iter().sum::<f64>() / cs.len() as f64;
    println!(
        "  Pfence     : measured {c:7.0} ns * log2(p)   (paper {:.0} ns * log2(p))",
        paper.fence_log
    );
    let p4 = bench::pscw_latency(4, 1);
    println!("  PSCW cycle : measured {p4:7.0} ns (k=2)   (paper {:.0} ns)", paper.pscw_round(2));
    write_csv(
        "models",
        "metric,measured,paper",
        &[
            format!("put_base_ns,{pb},{}", paper.cost.dmapp_put_base_ns),
            format!("put_byte_ns,{pbyte},{}", paper.cost.dmapp_put_byte_ns),
            format!("get_base_ns,{gb},{}", paper.cost.dmapp_get_base_ns),
            format!("get_byte_ns,{gbyte},{}", paper.cost.dmapp_get_byte_ns),
            format!("lock_excl_ns,{excl},{}", paper.lock_excl),
            format!("lock_shared_ns,{shared},{}", paper.lock_shared),
            format!("lock_all_ns,{all},{}", paper.lock_shared),
            format!("unlock_ns,{unlock},{}", paper.unlock),
            format!("flush_ns,{flush},{}", paper.flush),
            format!("sync_ns,{sync},{}", paper.cost.sync_ns),
            format!("fence_log_ns,{c},{}", paper.fence_log),
            format!("pscw_k2_ns,{p4},{}", paper.pscw_round(2)),
        ],
    );
    println!();
}

fn drift() {
    println!("--- Model drift: telemetry-observed costs vs §3 closed forms (p=4) ---");
    let mut rows = bench::drift::collect(4);
    // Batched-path coverage: the same drift discipline applied to the
    // issue-side batching layer's closed form (put_batched / batch_flush).
    rows.extend(bench::drift::collect_batched(4));
    print!("{}", bench::drift::render(&rows));
    // Split the table: deterministic classes feed the CI determinism gate
    // (drift.csv must regenerate byte-identically); partner-waiting
    // classes vary with thread scheduling and live apart.
    let (sched, det): (Vec<_>, Vec<_>) =
        rows.into_iter().partition(|r| bench::drift::is_schedule_dependent(r.class));
    write_csv("drift", bench::drift::csv_header(), &bench::drift::csv_rows(&det));
    write_csv("drift_sched", bench::drift::csv_header(), &bench::drift::csv_rows(&sched));
    println!();
}
