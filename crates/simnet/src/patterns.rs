//! Vector-time simulations of the live protocols' message structures.
//!
//! These replay, rank by rank and round by round, exactly the remote
//! operations the `fompi` crate issues — dissemination barrier for fence,
//! the Figure-2 matching ops for PSCW, the Figure-3 AMO sequences for
//! locks — priced by the fabric's [`CostModel`] over DMAPP, with foMPI's
//! software path from [`sw_fompi`]. For synchronous patterns this is exact
//! (it is the fixed point of the happens-before recurrence) and runs in
//! O(p log p), so half a million ranks take milliseconds.

use crate::net::{sw_fompi, Noise};
use fompi_fabric::cost::{CostModel, Transport::Dmapp};

/// Completion time per rank of a dissemination barrier entered by all
/// ranks at `t0[i]`.
pub fn dissemination_barrier(t0: &[f64], m: &CostModel, noise: &mut Noise) -> Vec<f64> {
    let p = t0.len();
    let mut t = t0.to_vec();
    if p <= 1 {
        return t;
    }
    let (o, put8) = (m.inject(Dmapp), m.put_latency(Dmapp, 8));
    let mut dist = 1;
    while dist < p {
        let prev = t.clone();
        for i in 0..p {
            let src = (i + p - dist) % p;
            // I send at prev[i] + o; I proceed once my own send is injected
            // and the token from src arrived.
            let my_send = prev[i] + o;
            let arrival = prev[src] + o + put8 + noise.sample_op(put8);
            t[i] = my_send.max(arrival);
        }
        dist *= 2;
    }
    t
}

/// Cost of the one-sided slot acquisition + match-list push that
/// `MPI_Win_post` performs per neighbour (Figure 2c: two gets and a CAS to
/// pop the free list, one get, one put and a CAS to push the match list).
pub fn post_per_neighbor(m: &CostModel) -> f64 {
    let (o, amo, get8) = (m.inject(Dmapp), m.amo_latency(Dmapp), m.get_latency(Dmapp, 8));
    let acquire = get8 + get8 + amo + 3.0 * o;
    let push = get8 + m.put_latency(Dmapp, 8) + amo + 3.0 * o;
    acquire + push
}

/// PSCW ring (k = 2 neighbours, Figure 6c): returns per-rank completion
/// times of one post/start/complete/wait cycle entered at time zero.
pub fn pscw_ring(p: usize, m: &CostModel, noise: &mut Noise) -> Vec<f64> {
    let (o, amo, sw) = (m.inject(Dmapp), m.amo_latency(Dmapp), sw_fompi());
    if p == 1 {
        return vec![2.0 * post_per_neighbor(m) + 2.0 * (o + amo)];
    }
    // Phase 1: post to both neighbours (sequential remote ops).
    let post_done: Vec<f64> = (0..p)
        .map(|_| 2.0 * post_per_neighbor(m) + noise.sample_op(2.0 * post_per_neighbor(m)))
        .collect();
    // Phase 2: start = my post done (program order) ∨ both neighbours'
    // announcements visible; the announcement lands partway through their
    // post, bounded by post_done.
    let start_done: Vec<f64> = (0..p)
        .map(|i| {
            let l = (i + p - 1) % p;
            let r = (i + 1) % p;
            post_done[i].max(post_done[l]).max(post_done[r]) + sw
        })
        .collect();
    // Phase 3: complete = gsync + one AMO per neighbour.
    let complete_done: Vec<f64> = (0..p)
        .map(|i| start_done[i] + 2.0 * (o + amo) + noise.sample_op(2.0 * (o + amo)))
        .collect();
    // Phase 4: wait = both neighbours' completes visible.
    (0..p)
        .map(|i| {
            let l = (i + p - 1) % p;
            let r = (i + 1) % p;
            complete_done[i].max(complete_done[l]).max(complete_done[r]) + sw
        })
        .collect()
}

/// Uncontended lock-operation costs (the §3.2 constants as protocol sums).
pub struct LockCosts {
    /// First exclusive lock: global registration AMO + local CAS.
    pub lock_excl: f64,
    /// Shared lock / lock_all: one remote AMO.
    pub lock_shared: f64,
    /// Unlock (shared): two injections and the software path; the release
    /// AMO is fire-and-forget, so its latency is not waited for.
    pub unlock: f64,
    /// Flush.
    pub flush: f64,
}

/// Derive lock costs from the model.
pub fn lock_costs(m: &CostModel) -> LockCosts {
    let (o, amo, sw) = (m.inject(Dmapp), m.amo_latency(Dmapp), sw_fompi());
    LockCosts {
        lock_excl: 2.0 * (o + amo) + sw,
        lock_shared: o + amo + sw,
        unlock: 2.0 * o + sw,
        flush: sw,
    }
}

/// Max over ranks (the reported latency).
pub fn max_of(v: &[f64]) -> f64 {
    v.iter().cloned().fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn barrier_scales_logarithmically() {
        let m = CostModel::default();
        let mut n = Noise::off();
        let mut at = |p: usize| max_of(&dissemination_barrier(&vec![0.0; p], &m, &mut n));
        let t2 = at(2);
        let t1024 = at(1024);
        assert!((t1024 / t2 - 10.0).abs() < 0.5, "t2={t2} t1024={t1024}");
    }

    #[test]
    fn barrier_waits_for_latecomer() {
        let m = CostModel::default();
        let mut n = Noise::off();
        let mut t0 = vec![0.0; 8];
        t0[3] = 1_000_000.0;
        let done = dissemination_barrier(&t0, &m, &mut n);
        assert!(done.iter().all(|&t| t > 1_000_000.0));
    }

    #[test]
    fn pscw_ring_is_flat_in_p() {
        let m = CostModel::default();
        let mut n = Noise::off();
        let t16 = max_of(&pscw_ring(16, &m, &mut n));
        let t16k = max_of(&pscw_ring(16_384, &m, &mut n));
        // The paper's key property: constant time for constant k.
        assert!((t16k - t16).abs() < 1.0, "t16={t16} t16k={t16k}");
    }

    #[test]
    fn pscw_noise_grows_with_p() {
        let m = CostModel::default();
        let noisy = |p: usize| {
            let mut n = Noise::new(42, 0.001, 50_000.0);
            max_of(&pscw_ring(p, &m, &mut n))
        };
        let clean = {
            let mut n = Noise::off();
            max_of(&pscw_ring(1 << 14, &m, &mut n))
        };
        // With thousands of ranks, someone hits the noise (probabilistic
        // but deterministic seed).
        assert!(noisy(1 << 14) > clean);
    }

    #[test]
    fn a_light_plan_perturbs_fence_and_pscw_and_never_speeds_them_up() {
        // The live light plan, mirrored: jitter only ever adds time, and at
        // 16k ranks the fence's O(p log p) perturbed ops make it show.
        let (m, plan) = (CostModel::default(), fompi_fabric::FaultPlan::light(42));
        for p in [64usize, 1024, 16_384] {
            let t0 = vec![0.0; p];
            let clean = max_of(&dissemination_barrier(&t0, &m, &mut Noise::off()));
            let noisy = max_of(&dissemination_barrier(&t0, &m, &mut Noise::from_plan(&plan, 3)));
            assert!(noisy >= clean && (p < 16_384 || noisy > clean), "fence at p={p}");
            let clean = max_of(&pscw_ring(p, &m, &mut Noise::off()));
            let noisy = max_of(&pscw_ring(p, &m, &mut Noise::from_plan(&plan, 5)));
            assert!(noisy >= clean, "pscw at p={p}");
        }
    }

    #[test]
    fn lock_constants_ordering() {
        let c = lock_costs(&CostModel::default());
        assert!(c.lock_excl > c.lock_shared);
        assert!(c.lock_shared > c.unlock);
        assert!(c.unlock > c.flush);
    }
}
