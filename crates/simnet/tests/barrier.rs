//! The simulated dissemination barrier charges what the live one charges.
//!
//! `patterns::dissemination_barrier` replays the barrier round by round;
//! the runtime's `CollEngine::barrier` charges ⌈log₂ p⌉ rounds in one
//! join. With every rank entering at zero and no noise, both must come to
//! ⌈log₂ p⌉ · `barrier_round(Dmapp)` on an all-inter-node job.

use fompi_fabric::cost::{CostModel, Transport};
use fompi_runtime::Universe;
use fompi_simnet::net::Noise;
use fompi_simnet::patterns::{dissemination_barrier, max_of};

#[test]
fn simulated_barrier_matches_the_live_barrier() {
    let m = CostModel::default();
    let round = m.barrier_round(Transport::Dmapp);
    for p in [2usize, 3, 8, 64] {
        let sim = max_of(&dissemination_barrier(&vec![0.0; p], &m, &mut Noise::off()));
        let live = Universe::new(p).node_size(1).run(|ctx| {
            let t0 = ctx.now();
            ctx.barrier();
            ctx.now() - t0
        });
        for (rank, &dt) in live.iter().enumerate() {
            assert_eq!(dt, sim, "p={p} rank {rank}: live barrier {dt} ns, simulated {sim} ns");
        }
        let rounds = p.next_power_of_two().trailing_zeros() as f64;
        assert!(
            (sim - rounds * round).abs() < 1e-6,
            "p={p}: {sim} ns vs {rounds} rounds of {round}"
        );
    }
}
