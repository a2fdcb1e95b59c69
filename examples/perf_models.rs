//! The paper's §3 performance models as a decision tool (§6).
//!
//! ```text
//! cargo run --release --example perf_models
//! ```
//!
//! Prints the closed-form cost functions and demonstrates the paper's
//! example use: choosing Fence vs PSCW synchronisation from
//! `Pfence(p) > Ppost(k) + Pcomplete(k) + Pstart + Pwait`.
//!
//! Pput and Pget are the live fabric's DMAPP latencies, so their rows at
//! s ≥ 4096 include the 400 ns the fabric charges for DMAPP's protocol
//! change at 4 KiB (the bump of Figures 4a/4b), on top of the paper's
//! linear fit.

use fompi::perf::{overhead, PaperModel};

fn main() {
    let m = PaperModel::default();
    println!("== foMPI performance models (Blue Waters constants, §3) ==\n");
    println!("communication:");
    for s in [8usize, 64, 512, 4096, 32768, 262144] {
        println!(
            "  s = {s:>7} B:  Pput = {:>9.0} ns   Pget = {:>9.0} ns   Pacc,sum = {:>9.0} ns   Pacc,min = {:>9.0} ns",
            m.put(s),
            m.get(s),
            m.acc_sum(s),
            m.acc_min(s)
        );
    }
    println!("\nsynchronisation:");
    for p in [2usize, 64, 4096, 262144] {
        println!("  p = {p:>7}:  Pfence = {:>9.0} ns", m.fence(p));
    }
    println!(
        "  PSCW (k neighbours): Ppost = Pcomplete = {:.0}·k ns, Pstart = {:.0} ns, Pwait = {:.0} ns",
        m.pscw_per_neighbor, m.start, m.wait
    );
    println!(
        "  locks: excl {:.0} ns, shared/lock_all {:.0} ns, unlock {:.0} ns, flush {:.0} ns, sync {:.0} ns",
        m.lock_excl, m.lock_shared, m.unlock, m.flush, m.cost.sync_ns
    );
    println!(
        "\nfast-path overheads: put/get ≈ {} instructions ({:.0} ns), flush ≈ {} instructions ({:.0} ns)",
        overhead::PUT_GET_INSTRUCTIONS,
        overhead::put_get_ns(),
        overhead::FLUSH_INSTRUCTIONS,
        overhead::flush_ns()
    );

    println!("\n== §6's example: pick Fence or PSCW ==");
    println!("{:>9} {:>5}  recommendation", "p", "k");
    for (p, k) in [(64, 2), (1024, 2), (1024, 16), (65536, 4), (65536, 48)] {
        let pscw = m.prefer_pscw(p, k);
        println!(
            "{p:>9} {k:>5}  {}  (Pfence = {:.1} us, PSCW cycle = {:.1} us)",
            if pscw { "PSCW  " } else { "Fence " },
            m.fence(p) / 1e3,
            m.pscw_round(k) / 1e3
        );
    }
}
