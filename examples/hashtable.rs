//! Distributed hashtable shoot-out (§4.1 / Figure 7a).
//!
//! ```text
//! cargo run --release --example hashtable [ranks] [inserts_per_rank]
//! ```
//!
//! Runs the same random-insert workload through the three backends the
//! paper compares — foMPI RMA atomics, UPC-style atomics and MPI-1 active
//! messages — verifies that every element landed, and reports the insert
//! rates.

use fompi_apps::hashtable::{run_mpi1, run_notified, run_rma, run_upc, HtConfig, HtResult};
use fompi_msg::{Comm, MsgEngine};
use fompi_runtime::Universe;

fn main() {
    let mut args = std::env::args().skip(1);
    let p: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(8);
    let inserts: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(512);
    let cfg = HtConfig {
        inserts_per_rank: inserts,
        table_slots: (p * inserts * 2).next_power_of_two(),
        heap_cells: p * inserts,
        seed: 42,
    };
    println!("== distributed hashtable: {p} ranks x {inserts} inserts ==\n");

    let report = |name: &str, results: &[HtResult]| {
        let total: usize = results.iter().map(|r| r.local_elements).sum();
        let t = results.iter().map(|r| r.time_ns).fold(0.0, f64::max);
        let rate = (p * inserts) as f64 / t * 1e3; // million inserts/s
        println!(
            "{name:<22} {rate:>9.2} M inserts/s   ({total} elements stored, {} expected)",
            p * inserts
        );
        assert_eq!(total, p * inserts, "{name}: elements lost!");
        rate
    };

    let (rma, _) = Universe::new(p).node_size(4).launch(|ctx| run_rma(ctx, &cfg));
    let r_rma = report("foMPI RMA (CAS/FAA)", &rma);

    let (notified, fabric) = Universe::new(p)
        .node_size(4)
        .notify_depth(2 * inserts)
        .launch(|ctx| run_notified(ctx, &cfg));
    report("notified (owner-computes)", &notified);

    // With FOMPI_TELEMETRY=1 (or FOMPI_METRICS=1), dump the notified
    // backend's event trace for Perfetto (ui.perfetto.dev) alongside the
    // per-class summary and the metrics snapshot: each insert reads as one
    // flow arc from the origin's notified put to the owner's notify-consume
    // span.
    let tel = fabric.telemetry();
    if tel.enabled() {
        println!("\n{}", tel.report());
        let path = "results/hashtable_trace.json";
        fompi_fabric::telemetry::perfetto::export_trace(tel, path).expect("write trace");
        println!("Perfetto trace written to {path} (open in ui.perfetto.dev)");
        let snap = fompi_fabric::metrics_snapshot(&fabric);
        println!("\n{}", snap.to_prometheus());
        println!("metrics json: {}", snap.to_json_line());
    }

    let upc = Universe::new(p).node_size(4).run(|ctx| run_upc(ctx, &cfg));
    let r_upc = report("UPC atomics", &upc);

    let engine = MsgEngine::new(p);
    let mpi = Universe::new(p).node_size(4).run(move |ctx| {
        let comm = Comm::attach(ctx, &engine);
        run_mpi1(ctx, &comm, &cfg)
    });
    let r_mpi = report("MPI-1 active messages", &mpi);

    println!("\nspeedup of RMA over MPI-1: {:.2}x", r_rma / r_mpi);
    println!("RMA vs UPC:                {:.2}x", r_rma / r_upc);
}
