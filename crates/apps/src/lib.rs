//! # fompi-apps — the paper's application studies, executable
//!
//! §4 of the paper evaluates foMPI on two motifs and two applications; all
//! four are implemented here with the same backend matrix the paper uses:
//!
//! * [`hashtable`] — distributed hashtable with random inserts
//!   (data-analytics motif, Figure 7a): MPI-1 active messages vs foMPI
//!   RMA atomics vs UPC atomics;
//! * [`dsde`] — dynamic sparse data exchange (irregular-application motif,
//!   Figure 7b): personalized alltoall vs reduce_scatter vs the NBX
//!   nonblocking-consensus protocol vs RMA accumulates;
//! * [`fft`] — 2D-decomposed 3-D FFT with communication/computation
//!   overlap (Figure 7c): blocking MPI-1 vs overlapped RMA/UPC slabs;
//! * [`milc`] — a MIMD Lattice Computation proxy: 4-D stencil
//!   conjugate-gradient solver with 8-direction halo exchange (Figure 8).
//!
//! Beyond the paper's four, [`kv`] is a served key-value store built on
//! the `fompi-txn` transaction layer: Zipf-skewed mixed read/write load
//! against versioned bucket tables, with two-key transfers as the
//! multi-key-transaction stressor.
//!
//! Every motif returns both a *correctness artefact* (checked in tests: all
//! elements present, all messages delivered, FFT matches a naive DFT, CG
//! residual converges identically across backends) and the per-rank virtual
//! time used by the benchmark harness.

pub mod dsde;
pub mod fft;
pub mod hashtable;
pub mod kv;
pub mod milc;

/// Max virtual time across ranks — the completion time a benchmark reports.
pub fn max_time(times: &[f64]) -> f64 {
    times.iter().cloned().fold(0.0, f64::max)
}

/// splitmix64 — the hash used to scatter keys across ranks and slots
/// (re-exported from the fabric's in-repo PRNG module).
pub use fompi_fabric::rng::splitmix64;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_spreads_bits() {
        let a = splitmix64(1);
        let b = splitmix64(2);
        assert_ne!(a, b);
        assert_ne!(a & 0xFFFF, b & 0xFFFF);
    }

    /// The RMA kernels allocate their window per call, so they must free
    /// it: each leaves the fabric's registry the size it found it.
    #[test]
    fn rma_kernels_free_their_windows() {
        use fompi_runtime::Universe;
        let ht = hashtable::HtConfig { inserts_per_rank: 64, ..Default::default() };
        let cg = milc::MilcConfig { local: [2, 2, 2, 4], iters: 2, seed: 3 };
        let fft3 = fft::FftConfig { n: 8, seed: 3 };
        Universe::new(2).node_size(1).run(|ctx| {
            // Read between two barriers: nobody allocates or frees meanwhile.
            let registered = || {
                ctx.barrier();
                let n = ctx.fabric().registered_segments();
                ctx.barrier();
                n
            };
            let found = registered();
            hashtable::run_rma(ctx, &ht);
            assert_eq!(registered(), found, "hashtable::run_rma left segments registered");
            hashtable::run_notified(ctx, &ht);
            assert_eq!(registered(), found, "hashtable::run_notified left segments registered");
            milc::run_rma(ctx, &cg);
            assert_eq!(registered(), found, "milc::run_rma left segments registered");
            milc::run_rma_typed(ctx, &cg);
            assert_eq!(registered(), found, "milc::run_rma_typed left segments registered");
            fft::run_rma(ctx, &fft3);
            assert_eq!(registered(), found, "fft::run_rma left segments registered");
        });
    }

    #[test]
    fn max_time_of_empty_is_zero() {
        assert_eq!(max_time(&[]), 0.0);
        assert_eq!(max_time(&[1.0, 5.0, 2.0]), 5.0);
    }
}
