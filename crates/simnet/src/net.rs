//! Where the simulators' costs come from, and the congestion and noise
//! models.
//!
//! Nothing here restates a cost. Hardware costs (injection, put / get / AMO
//! latency with the DMAPP protocol change, compute speed) are the live
//! fabric's [`CostModel`]. Each layer's software path is read from the crate
//! that charges it: [`sw_fompi`] from `fompi::perf::overhead`, [`sw_upc`] /
//! [`sw_caf`] from `fompi_pgas::PgasCosts`, [`sw_mpi1`] / [`sw_mpi22`] from
//! `fompi_msg::MSG_COSTS`. [`Torus3D`] adds per-link occupancy (the paper's
//! "different job layouts in the Gemini torus"), [`Noise`] OS detours or a
//! mirrored live fault plan.

use fompi::perf::overhead;
use fompi_fabric::cost::{CostModel, Transport::Dmapp};
use fompi_fabric::rng::{splitmix64, Rng};
use fompi_fabric::FaultPlan;
use fompi_msg::MSG_COSTS;
use fompi_pgas::PgasCosts;

/// foMPI's per-call software path: the 173-instruction put / get fast path.
pub fn sw_fompi() -> f64 {
    overhead::put_get_ns()
}

/// Cray UPC's per-call software path.
pub fn sw_upc() -> f64 {
    PgasCosts::default().upc_op_ns
}

/// Cray CAF's per-call software path.
pub fn sw_caf() -> f64 {
    PgasCosts::default().caf_op_ns
}

/// Cray MPI-1's per-message software path: call overhead plus tag matching.
pub fn sw_mpi1() -> f64 {
    MSG_COSTS.sw_ns + MSG_COSTS.match_ns
}

/// Cray MPI-2.2 one-sided's per-op software agent.
pub fn sw_mpi22() -> f64 {
    MSG_COSTS.agent_ns
}

/// An MPI-1 small-message half round trip (send → matched receive): one
/// injection, the MPI-1 software path and a put of the payload with its
/// envelope.
pub fn mpi1_msg(m: &CostModel, bytes: usize) -> f64 {
    m.inject(Dmapp) + sw_mpi1() + m.put_latency(Dmapp, bytes + MSG_COSTS.header_bytes)
}

/// A 3-D torus with per-link occupancy (wormhole-ish approximation:
/// a message claims each link on its dimension-ordered path in turn; the
/// arrival time accumulates waiting at busy links).
pub struct Torus3D {
    dims: [usize; 3],
    /// busy-until time for each directed link: node × 6 directions.
    busy: Vec<f64>,
    /// Per-hop router latency.
    pub hop_ns: f64,
    /// Link serialisation cost per byte.
    pub byte_ns: f64,
}

impl Torus3D {
    /// A near-cubic torus hosting `nodes` nodes.
    pub fn new(nodes: usize) -> Torus3D {
        let mut dx = (nodes as f64).cbrt().round() as usize;
        dx = dx.max(1);
        while !nodes.is_multiple_of(dx) {
            dx -= 1;
        }
        let rest = nodes / dx;
        let mut dy = (rest as f64).sqrt().round() as usize;
        dy = dy.max(1);
        while !rest.is_multiple_of(dy) {
            dy -= 1;
        }
        let dz = rest / dy;
        let dims = [dx, dy, dz];
        Torus3D {
            dims,
            busy: vec![0.0; nodes * 6],
            hop_ns: 105.0, // Gemini per-hop
            byte_ns: 0.19, // ~5.2 GB/s per link
        }
    }

    /// The torus dimensions.
    pub fn dims(&self) -> [usize; 3] {
        self.dims
    }

    fn coords(&self, node: usize) -> [usize; 3] {
        let [dx, dy, _] = self.dims;
        [node % dx, (node / dx) % dy, node / (dx * dy)]
    }

    fn node(&self, c: [usize; 3]) -> usize {
        let [dx, dy, _] = self.dims;
        c[0] + dx * (c[1] + dy * c[2])
    }

    /// Hop count of the dimension-ordered shortest path.
    pub fn hops(&self, a: usize, b: usize) -> usize {
        let ca = self.coords(a);
        let cb = self.coords(b);
        (0..3)
            .map(|d| {
                let n = self.dims[d];
                let diff = ca[d].abs_diff(cb[d]);
                diff.min(n - diff)
            })
            .sum()
    }

    /// Route a message of `bytes` from node `a` to node `b`, departing at
    /// `t`; returns the arrival time and updates link occupancy.
    pub fn route(&mut self, a: usize, b: usize, bytes: usize, t: f64) -> f64 {
        let mut cur = self.coords(a);
        let target = self.coords(b);
        let ser = self.byte_ns * bytes as f64;
        let mut time = t;
        for d in 0..3 {
            while cur[d] != target[d] {
                let n = self.dims[d];
                let fwd = (target[d] + n - cur[d]) % n;
                let go_up = fwd <= n - fwd;
                let dir = 2 * d + usize::from(!go_up);
                let link = self.node(cur) * 6 + dir;
                // Wait for the link, then occupy it for the serialisation
                // time and hop onward.
                time = time.max(self.busy[link]) + self.hop_ns;
                self.busy[link] = time + ser;
                cur[d] = if go_up { (cur[d] + 1) % n } else { (cur[d] + n - 1) % n };
            }
        }
        time + ser
    }

    /// Reset occupancy between experiments.
    pub fn reset(&mut self) {
        self.busy.iter_mut().for_each(|b| *b = 0.0);
    }
}

/// Per-rank OS-noise generator: occasional detours of `amp_ns` with
/// probability `prob` per operation — the source of the jitter the paper's
/// Figure 6c shows beyond ~1000 processes (cf. Petrini's "missing
/// supercomputer performance").
///
/// A source built with [`Noise::from_plan`] instead mirrors the live
/// fabric's fault layer (`fompi_fabric::faults`): the same fault classes a
/// soak run injects perturb the closed-form series, so large-p figures can
/// be regenerated "under weather" comparable to a small-p soak.
pub struct Noise {
    rng: Rng,
    /// Perturbation probability per sample.
    pub prob: f64,
    /// Perturbation amplitude (ns).
    pub amp_ns: f64,
    /// Armed fault plan (plan-mirroring mode); `None` = legacy prob/amp.
    plan: Option<FaultPlan>,
}

impl Noise {
    /// Deterministic noise source.
    pub fn new(seed: u64, prob: f64, amp_ns: f64) -> Noise {
        Noise { rng: Rng::seed_from_u64(seed), prob, amp_ns, plan: None }
    }

    /// Disabled noise.
    pub fn off() -> Noise {
        Noise::new(0, 0.0, 0.0)
    }

    /// Mirror a live fault plan into the simulations. Every class the
    /// fault layer injects per issue — rank pauses, injection-queue
    /// stalls, proportional jitter, heavy-tail spikes, delayed retirement
    /// — collapses here to extra latency on the sampled operation.
    /// `stream` decorrelates independent series drawn from one plan.
    pub fn from_plan(plan: &FaultPlan, stream: u64) -> Noise {
        Noise {
            rng: Rng::seed_from_u64(splitmix64(
                plan.seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15),
            )),
            prob: 0.0,
            amp_ns: 0.0,
            plan: plan.any().then(|| plan.clone()),
        }
    }

    /// Sample the perturbation of one operation whose unperturbed latency
    /// is `base_ns`. Mirrors `Faults::draw_op`'s draw structure.
    pub fn sample_op(&mut self, base_ns: f64) -> f64 {
        let Some(p) = self.plan.clone() else {
            return if self.prob > 0.0 && self.rng.next_f64() < self.prob {
                self.amp_ns * self.rng.next_f64()
            } else {
                0.0
            };
        };
        let mut extra = 0.0;
        if p.pause_prob > 0.0 && self.rng.next_f64() < p.pause_prob {
            extra += p.pause_ns * (0.5 + self.rng.next_f64());
        }
        if p.bp_prob > 0.0 && self.rng.next_f64() < p.bp_prob {
            extra += p.bp_ns * self.rng.next_f64();
        }
        if p.jitter_frac > 0.0 {
            extra += base_ns * p.jitter_frac * self.rng.next_f64();
        }
        if p.spike_prob > 0.0 && self.rng.next_f64() < p.spike_prob {
            let u = self.rng.next_f64().max(1e-9);
            extra += (p.spike_ns / u.sqrt()).min(64.0 * p.spike_ns);
        }
        if p.delay_prob > 0.0 && self.rng.next_f64() < p.delay_prob {
            extra += p.delay_ns * self.rng.next_f64();
        }
        extra
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn torus_dims_cover_nodes() {
        for n in [1, 8, 27, 64, 100, 1000, 1024] {
            let t = Torus3D::new(n);
            let [a, b, c] = t.dims();
            assert_eq!(a * b * c, n, "n={n} dims={:?}", t.dims());
        }
    }

    #[test]
    fn hops_symmetric_and_wrapping() {
        let t = Torus3D::new(64); // 4x4x4
        assert_eq!(t.hops(0, 0), 0);
        assert_eq!(t.hops(0, 1), 1);
        // Wrap-around: distance 3 becomes 1.
        assert_eq!(t.hops(0, 3), 1);
        for (a, b) in [(0, 13), (5, 62), (7, 7)] {
            assert_eq!(t.hops(a, b), t.hops(b, a));
        }
    }

    #[test]
    fn congestion_delays_messages() {
        let mut t = Torus3D::new(8);
        let big = 1 << 20;
        let first = t.route(0, 1, big, 0.0);
        // Same link immediately after: must wait out the serialisation.
        let second = t.route(0, 1, big, 0.0);
        assert!(second > first, "{second} vs {first}");
        t.reset();
        let fresh = t.route(0, 1, big, 0.0);
        assert_eq!(fresh, first);
    }

    #[test]
    fn noise_off_is_zero() {
        let mut n = Noise::off();
        for _ in 0..100 {
            assert_eq!(n.sample_op(0.0), 0.0);
        }
    }

    #[test]
    fn plan_noise_is_deterministic_and_scales_with_base() {
        let plan = FaultPlan::heavy(77);
        let mut a = Noise::from_plan(&plan, 0);
        let mut b = Noise::from_plan(&plan, 0);
        let mut any = false;
        for _ in 0..200 {
            let x = a.sample_op(1_000.0);
            assert_eq!(x.to_bits(), b.sample_op(1_000.0).to_bits());
            any |= x > 0.0;
        }
        assert!(any, "heavy plan must perturb the series");
        // Distinct streams decorrelate.
        let mut c = Noise::from_plan(&plan, 1);
        let diverged = (0..50).any(|_| {
            Noise::from_plan(&plan, 0).sample_op(500.0).to_bits() != c.sample_op(500.0).to_bits()
        });
        assert!(diverged);
        // A disabled plan is inert even through from_plan.
        let mut off = Noise::from_plan(&FaultPlan::disabled(), 0);
        for _ in 0..50 {
            assert_eq!(off.sample_op(1_000.0), 0.0);
        }
    }

    #[test]
    fn noise_on_is_bounded() {
        let mut n = Noise::new(7, 1.0, 500.0);
        for _ in 0..100 {
            let s = n.sample_op(0.0);
            assert!((0.0..=500.0).contains(&s));
        }
    }
}
